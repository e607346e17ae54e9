//! File views: the `(displacement, etype, filetype)` triple of
//! `MPI_File_set_view`, and the logical→physical offset translation every
//! read and write goes through.
//!
//! A view tiles the file with copies of the flattened filetype, one per
//! extent, starting at `disp`. Logical byte `n` of the stream maps to the
//! n-th payload byte of that tiling. [`FileView::map`] translates a
//! logical `(offset, len)` request into the corresponding list of physical
//! `(offset, len)` ranges, which the independent and collective I/O paths
//! then hand to the ADIO drivers.
//!
//! Mapping costs what it returns, never what it spans: [`FileView::new`]
//! indexes the tile once (run offsets from the tile's start and the prefix
//! sums of run lengths), so `map` finds its first tile by one division and
//! its first run by a binary search, then visits only runs that contribute
//! a range — O(log runs + ranges out). A seamless tiling (a dense filetype
//! of any size, the default byte-stream view included) is one range
//! whatever the length.

use std::sync::Arc;

use crate::datatype::Datatype;

/// An active file view.
#[derive(Debug, Clone)]
pub struct FileView {
    disp: u64,
    etype_size: u64,
    /// Shared, so handing a rank's view to each call is a refcount bump.
    tile: Arc<TileIndex>,
}

/// One filetype tile, indexed for [`FileView::map`].
#[derive(Debug)]
struct TileIndex {
    /// `(offset from the tile's start, length)` per run, in typemap order,
    /// none empty.
    runs: Vec<(u64, u64)>,
    /// `prefix[i]` = payload bytes in `runs[..i]`; `prefix[runs.len()]` is
    /// the tile's payload size. Strictly increasing.
    prefix: Vec<u64>,
    /// Tiling period.
    extent: u64,
}

impl TileIndex {
    /// Payload bytes per tile.
    fn size(&self) -> u64 {
        self.prefix[self.runs.len()]
    }

    /// The tile is one run as long as the extent: consecutive tiles abut,
    /// so the stream is one physical range from `disp + runs[0].0` on.
    fn seamless(&self) -> bool {
        self.runs.len() == 1 && self.runs[0].1 == self.extent
    }
}

impl FileView {
    /// Construct a view. The filetype's payload size must be a multiple of
    /// the etype size (MPI requirement).
    pub fn new(disp: u64, etype: &Datatype, filetype: &Datatype) -> FileView {
        let etype_size = etype.size().max(1);
        let flat = filetype.flat();
        assert!(
            flat.size.is_multiple_of(etype_size),
            "filetype size {} not a multiple of etype size {}",
            flat.size,
            etype_size
        );
        assert!(flat.lb >= 0, "negative filetype lower bound unsupported");
        let runs: Vec<(u64, u64)> = flat
            .runs
            .iter()
            .map(|&(roff, rlen)| ((roff - flat.lb) as u64, rlen))
            .collect();
        let mut prefix = Vec::with_capacity(runs.len() + 1);
        prefix.push(0);
        for (i, &(_, rlen)) in runs.iter().enumerate() {
            prefix.push(prefix[i] + rlen);
        }
        FileView {
            disp,
            etype_size,
            tile: Arc::new(TileIndex {
                runs,
                prefix,
                extent: flat.extent,
            }),
        }
    }

    /// The trivial byte-stream view at displacement 0.
    pub fn contiguous() -> FileView {
        FileView::new(0, &Datatype::bytes(1), &Datatype::bytes(1))
    }

    /// Bytes of payload per filetype tile.
    pub fn tile_size(&self) -> u64 {
        self.tile.size()
    }

    /// The etype size in bytes (file pointers count in etypes).
    pub fn etype_size(&self) -> u64 {
        self.etype_size
    }

    /// Translate a logical byte range into physical `(offset, len)` ranges,
    /// in stream order, adjacent ranges merged.
    ///
    /// `logical` is a byte offset into the view's data stream (callers
    /// convert etype offsets by multiplying with [`FileView::etype_size`]).
    pub fn map(&self, logical: u64, len: u64) -> Vec<(u64, u64)> {
        if len == 0 {
            return Vec::new();
        }
        let t = &*self.tile;
        let size = t.size();
        assert!(size > 0, "I/O through a zero-size filetype");
        if t.seamless() {
            return vec![(self.disp + t.runs[0].0 + logical, len)];
        }
        let mut tile_idx = logical / size;
        let within = logical % size;
        // The run holding payload byte `within` of its tile:
        // prefix[first] <= within < prefix[first + 1].
        let mut first = t.prefix.partition_point(|&p| p <= within) - 1;
        let mut skip = within - t.prefix[first];
        let mut out: Vec<(u64, u64)> = Vec::new();
        let mut remaining = len;
        loop {
            let tile_base = self.disp + tile_idx * t.extent;
            for &(roff, rlen) in &t.runs[first..] {
                let take = (rlen - skip).min(remaining);
                let phys = tile_base + roff + skip;
                match out.last_mut() {
                    Some((poff, plen)) if *poff + *plen == phys => *plen += take,
                    _ => out.push((phys, take)),
                }
                remaining -= take;
                if remaining == 0 {
                    return out;
                }
                skip = 0;
            }
            first = 0;
            tile_idx += 1;
        }
    }

    /// Physical end offset of the logical position `logical` (useful for
    /// size computations): the physical offset just past the last byte of
    /// `map(0, logical)`.
    pub fn physical_end(&self, logical: u64) -> u64 {
        if logical == 0 {
            return self.disp;
        }
        let ranges = self.map(logical - 1, 1);
        ranges.last().map(|(o, l)| o + l).unwrap_or(self.disp)
    }

    /// Inverse mapping for `MPI_File_seek(..., MPI_SEEK_END)`: the number
    /// of logical payload bytes whose physical offsets lie strictly below
    /// `phys_size` (the file's current size).
    pub fn logical_size(&self, phys_size: u64) -> u64 {
        if phys_size <= self.disp {
            return 0;
        }
        let t = &*self.tile;
        let span = phys_size - self.disp;
        let full_tiles = span / t.extent.max(1);
        let mut logical = full_tiles * t.size();
        // Scan the partial tile.
        let tile_base = full_tiles * t.extent;
        for &(roff, rlen) in &t.runs {
            let start = tile_base + roff;
            if start >= span {
                continue;
            }
            logical += rlen.min(span - start);
        }
        logical
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FileView {
        /// The tile walker `map` replaced, kept as the reference the
        /// differential test compares against: it steps through every run
        /// of every tile from the start of the first tile touched, so it
        /// costs O(bytes / tile × runs) — per byte under a 1-byte filetype.
        fn map_reference(&self, logical: u64, len: u64) -> Vec<(u64, u64)> {
            if len == 0 {
                return Vec::new();
            }
            let tile = self.tile.size();
            assert!(tile > 0, "I/O through a zero-size filetype");
            let mut out: Vec<(u64, u64)> = Vec::new();
            let mut remaining = len;
            let mut tile_idx = logical / tile;
            let mut within = logical % tile; // payload bytes to skip in this tile
            while remaining > 0 {
                let tile_base = self.disp + tile_idx * self.tile.extent;
                for (roff, rlen) in &self.tile.runs {
                    if remaining == 0 {
                        break;
                    }
                    if within >= *rlen {
                        within -= *rlen;
                        continue;
                    }
                    let take = (*rlen - within).min(remaining);
                    let phys = tile_base + *roff + within;
                    match out.last_mut() {
                        Some((poff, plen)) if *poff + *plen == phys => *plen += take,
                        _ => out.push((phys, take)),
                    }
                    remaining -= take;
                    within = 0;
                }
                tile_idx += 1;
            }
            out
        }
    }

    #[test]
    fn contiguous_view_is_identity() {
        let v = FileView::contiguous();
        assert_eq!(v.map(0, 100), vec![(0, 100)]);
        assert_eq!(v.map(42, 8), vec![(42, 8)]);
        assert_eq!(v.etype_size(), 1);
    }

    #[test]
    fn displacement_shifts_everything() {
        let v = FileView::new(1000, &Datatype::bytes(1), &Datatype::bytes(1));
        assert_eq!(v.map(0, 10), vec![(1000, 10)]);
        assert_eq!(v.map(5, 10), vec![(1005, 10)]);
    }

    #[test]
    fn strided_view_maps_to_blocks() {
        // Filetype: take 4 bytes, skip 12 (vector 1×4 stride 16 via resized).
        let ft = Datatype::resized(&Datatype::bytes(4), 0, 16);
        let v = FileView::new(0, &Datatype::bytes(1), &ft);
        assert_eq!(v.tile_size(), 4);
        // 10 logical bytes = tiles 0,1 full + 2 bytes of tile 2.
        assert_eq!(v.map(0, 10), vec![(0, 4), (16, 4), (32, 2)]);
        // Mid-tile start.
        assert_eq!(v.map(2, 4), vec![(2, 2), (16, 2)]);
    }

    #[test]
    fn multi_run_tile() {
        // Filetype: bytes 0..2 and 6..8 of a 10-byte tile.
        let ft = Datatype::resized(
            &Datatype::hindexed(&[(1, 0), (1, 6)], &Datatype::bytes(2)),
            0,
            10,
        );
        let v = FileView::new(100, &Datatype::bytes(1), &ft);
        assert_eq!(v.tile_size(), 4);
        assert_eq!(v.map(0, 8), vec![(100, 2), (106, 2), (110, 2), (116, 2)]);
        // Skip the first run entirely.
        assert_eq!(v.map(2, 2), vec![(106, 2)]);
        // Start inside the second run.
        assert_eq!(v.map(3, 2), vec![(107, 1), (110, 1)]);
    }

    #[test]
    fn rank_partitioned_views_interleave() {
        // Classic 2-rank interleave: each rank sees alternate 8-byte blocks.
        let el = Datatype::bytes(8);
        let mk = |rank: i64| {
            let ft = Datatype::resized(&Datatype::hindexed(&[(1, rank * 8)], &el), 0, 16);
            FileView::new(0, &el, &ft)
        };
        let v0 = mk(0);
        let v1 = mk(1);
        assert_eq!(v0.map(0, 16), vec![(0, 8), (16, 8)]);
        assert_eq!(v1.map(0, 16), vec![(8, 8), (24, 8)]);
        // Together they cover the file without overlap.
    }

    #[test]
    fn adjacent_tiles_merge_when_contiguous() {
        // Filetype = 8 contiguous bytes with extent 8: tiling is seamless.
        let v = FileView::new(0, &Datatype::bytes(1), &Datatype::bytes(8));
        assert_eq!(v.map(0, 64), vec![(0, 64)]);
    }

    #[test]
    fn physical_end_tracks_mapping() {
        let ft = Datatype::resized(&Datatype::bytes(4), 0, 16);
        let v = FileView::new(0, &Datatype::bytes(1), &ft);
        assert_eq!(v.physical_end(0), 0);
        assert_eq!(v.physical_end(4), 4);
        assert_eq!(v.physical_end(5), 17);
        assert_eq!(v.physical_end(8), 20);
    }

    #[test]
    fn zero_len_maps_to_nothing() {
        let v = FileView::contiguous();
        assert!(v.map(123, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn etype_mismatch_rejected() {
        // Filetype carries 6 bytes; etype is 4: not a multiple.
        let ft = Datatype::bytes(6);
        FileView::new(0, &Datatype::bytes(4), &ft);
    }

    #[test]
    fn logical_size_inverts_physical_end() {
        // 4 bytes taken every 16, displacement 8.
        let ft = Datatype::resized(&Datatype::bytes(4), 0, 16);
        let v = FileView::new(8, &Datatype::bytes(1), &ft);
        for logical in [0u64, 1, 3, 4, 5, 9, 16, 17] {
            let phys = v.physical_end(logical);
            assert_eq!(v.logical_size(phys), logical, "logical={logical}");
        }
        // A physical size mid-hole counts only the data before it.
        // Tile 0 data = [8, 12); size 14 is in the hole.
        assert_eq!(v.logical_size(14), 4);
        // Size below the displacement: nothing.
        assert_eq!(v.logical_size(5), 0);
    }

    #[test]
    fn logical_size_inverts_physical_end_randomized() {
        // Property test over randomized multi-run filetypes: for every
        // logical length L, `logical_size(physical_end(L)) == L`, and the
        // mapping itself hands back exactly L sorted, disjoint payload
        // bytes. Exercises partial-tile edges the hand-picked cases miss.
        let mut rng = simnet::Rng64::new(0xF11E_711E);
        for trial in 0..200 {
            let nruns = rng.range_usize(1, 5);
            let mut entries = Vec::with_capacity(nruns);
            let mut off = rng.range(0, 4) as i64;
            for _ in 0..nruns {
                let len = rng.range(1, 9);
                entries.push((len, off));
                off += len as i64 + rng.range(0, 9) as i64;
            }
            let extent = off as u64 + rng.range(0, 9);
            let ft = Datatype::resized(
                &Datatype::hindexed(&entries, &Datatype::bytes(1)),
                0,
                extent,
            );
            let disp = rng.range(0, 64);
            let v = FileView::new(disp, &Datatype::bytes(1), &ft);
            let tile = v.tile_size();
            let probes = [
                0,
                1,
                tile - 1,
                tile,
                tile + 1,
                2 * tile - 1,
                3 * tile,
                rng.range(0, 4 * tile + 1),
                rng.range(0, 4 * tile + 1),
            ];
            for &logical in &probes {
                let phys = v.physical_end(logical);
                assert_eq!(
                    v.logical_size(phys),
                    logical,
                    "trial={trial} runs={entries:?} extent={extent} \
                     disp={disp} logical={logical} phys={phys}"
                );
                let ranges = v.map(0, logical);
                let total: u64 = ranges.iter().map(|r| r.1).sum();
                assert_eq!(total, logical, "trial={trial} mapped payload short");
                assert!(
                    ranges.windows(2).all(|w| w[0].0 + w[0].1 <= w[1].0),
                    "trial={trial} map produced unsorted/overlapping ranges: {ranges:?}"
                );
                if logical > 0 {
                    assert_eq!(
                        ranges.last().map(|(o, l)| o + l),
                        Some(phys),
                        "trial={trial} physical_end disagrees with map"
                    );
                }
            }
        }
    }

    #[test]
    fn subarray_view_2d_row_block() {
        // 2 ranks split a 4x4 byte matrix by rows; rank 1's view.
        let ft = Datatype::subarray(&[4, 4], &[2, 4], &[2, 0], &Datatype::bytes(1));
        let v = FileView::new(0, &Datatype::bytes(1), &ft);
        assert_eq!(v.map(0, 8), vec![(8, 8)]);
    }

    /// A seeded filetype of one of the shapes `map` distinguishes, its
    /// description for failure messages, and whether its runs ascend
    /// inside the extent (what `logical_size` inverts).
    fn random_filetype(rng: &mut simnet::Rng64) -> (Datatype, String, bool) {
        let byte = Datatype::bytes(1);
        let shape = rng.range(0, 6);
        let (dt, desc) = match shape {
            // Dense, any tile size: seamless.
            0 => {
                let n = rng.range(1, 70_000);
                (Datatype::bytes(n), format!("bytes({n})"))
            }
            // One run with a trailing hole.
            1 => {
                let n = rng.range(1, 64);
                let ext = n + rng.range(1, 64);
                (
                    Datatype::resized(&Datatype::bytes(n), 0, ext),
                    format!("resized(bytes({n}), 0, {ext})"),
                )
            }
            // One run, lb > 0 (hindexed at a positive displacement): the
            // run starts at the lower bound, so seamless again.
            2 => {
                let n = rng.range(1, 64);
                let at = rng.range(1, 64) as i64;
                (
                    Datatype::hindexed(&[(1, at)], &Datatype::bytes(n)),
                    format!("hindexed([(1, {at})], bytes({n}))"),
                )
            }
            // One full-extent run shifted off the tile's start: seamless
            // with a constant offset.
            3 => {
                let n = rng.range(1, 64);
                let at = rng.range(1, 64) as i64;
                (
                    Datatype::resized(&Datatype::hindexed(&[(1, at)], &Datatype::bytes(n)), 0, n),
                    format!("resized(hindexed([(1, {at})], bytes({n})), 0, {n})"),
                )
            }
            // Multi-run, ascending, lb > 0 or not, zero-length blocks
            // mixed in; the extent ends with the last run, so that run
            // merges into the next tile's first.
            4 => {
                let nruns = rng.range_usize(2, 40);
                let mut entries = Vec::with_capacity(nruns);
                let mut off = rng.range(0, 8) as i64;
                for _ in 0..nruns {
                    let len = if rng.range(0, 5) == 0 {
                        0
                    } else {
                        rng.range(1, 9)
                    };
                    entries.push((len, off));
                    off += len as i64 + rng.range(1, 9) as i64;
                }
                entries.push((1, off));
                let dt = Datatype::hindexed(&entries, &byte);
                (dt, format!("hindexed({entries:?})"))
            }
            // Multi-run in shuffled typemap order (ranges come out
            // unsorted), resized to an extent at or past the data.
            _ => {
                let nruns = rng.range_usize(2, 12);
                let mut entries: Vec<(u64, i64)> = (0..nruns)
                    .map(|k| (rng.range(1, 6), k as i64 * 8))
                    .collect();
                for i in (1..entries.len()).rev() {
                    entries.swap(i, rng.range_usize(0, i + 1));
                }
                let ext = nruns as u64 * 8 + rng.range(0, 9);
                (
                    Datatype::resized(&Datatype::hindexed(&entries, &byte), 0, ext),
                    format!("resized(hindexed({entries:?}), 0, {ext})"),
                )
            }
        };
        (dt, desc, !matches!(shape, 3 | 5))
    }

    #[test]
    fn map_matches_the_tile_walker() {
        let mut rng = simnet::Rng64::new(0x51A7_7E4D);
        let mut cases = 0;
        for trial in 0..300 {
            let (ft, desc, ascending) = random_filetype(&mut rng);
            let disp = if trial % 2 == 0 {
                0
            } else {
                rng.range(1, 10_000)
            };
            let v = FileView::new(disp, &Datatype::bytes(1), &ft);
            let tile = v.tile_size();
            let nruns = v.tile.runs.len() as u64;
            // Starts: a tile edge, mid-tile, a run edge, far out.
            let starts = [
                0,
                tile * rng.range(1, 5),
                rng.range(0, 4 * tile),
                v.tile.prefix[rng.range_usize(0, v.tile.runs.len())] + tile * rng.range(0, 3),
                tile * rng.range(1_000, 2_000) + rng.range(0, tile),
            ];
            // Lengths: within a run, 0-4 tiles, and >= 1 000 tiles (kept to
            // tiles the walker can finish: it pays per run).
            let long = tile * rng.range(1_000, 1_000 + 40_000 / nruns.max(1));
            let lens = [
                0,
                1,
                rng.range(1, tile + 1),
                rng.range(0, 4 * tile + 1),
                long + rng.range(0, tile),
            ];
            for &logical in &starts {
                for &len in &lens {
                    assert_eq!(
                        v.map(logical, len),
                        v.map_reference(logical, len),
                        "trial={trial} ft={desc} disp={disp} logical={logical} len={len}"
                    );
                    cases += 1;
                }
                if ascending {
                    let phys = v.physical_end(logical);
                    assert_eq!(
                        v.logical_size(phys),
                        logical,
                        "trial={trial} ft={desc} disp={disp} logical={logical} phys={phys}"
                    );
                }
            }
        }
        assert!(cases >= 2_000, "only {cases} differential cases");
    }

    #[test]
    fn mapping_costs_ranges_not_bytes() {
        // A terabyte through a dense view is one range. Under the tile
        // walker this is 2^40 steps of a 1-byte tile: it does not finish.
        let tb = 1u64 << 40;
        assert_eq!(FileView::contiguous().map(tb, tb), vec![(tb, tb)]);
        let v = FileView::new(4096, &Datatype::bytes(1), &Datatype::bytes(65536));
        assert_eq!(v.map(tb, tb), vec![(4096 + tb, tb)]);
        // A sparse view far out: the first run is found, not walked to.
        let ft = Datatype::resized(&Datatype::bytes(4), 0, 16);
        let v = FileView::new(0, &Datatype::bytes(1), &ft);
        assert_eq!(v.map(tb + 2, 4), vec![(4 * tb + 2, 2), (4 * tb + 16, 2)]);
    }
}
