//! MPI derived datatypes: the type algebra behind file views and
//! noncontiguous I/O.
//!
//! A datatype describes a *typemap*: an ordered sequence of
//! `(displacement, length)` byte runs. The order matters — when data is
//! packed through a type, the n-th payload byte lands in the n-th position
//! of the run sequence. [`Datatype::flatten`] produces that sequence with
//! adjacent-contiguous runs merged (ROMIO's "flattening"), which is what
//! every I/O path in this crate consumes.
//!
//! Supported constructors mirror MPI-2: contiguous, vector/hvector,
//! indexed/hindexed, struct, resized, subarray (C order), and a
//! block-distributed darray helper.

use std::sync::{Arc, OnceLock};

/// A derived datatype (immutable, cheaply cloneable).
#[derive(Debug, Clone)]
pub struct Datatype {
    inner: Arc<Node>,
}

#[derive(Debug)]
struct Node {
    kind: Kind,
    /// The flattened form, expanded from `kind` on first use: a datatype
    /// is immutable, so every later `size` / `extent` / `flatten` / view
    /// construction reads this instead of re-walking the typemap.
    flat: OnceLock<Flattened>,
}

#[derive(Debug)]
enum Kind {
    /// `n` contiguous bytes (the elementary type; MPI_BYTE × n).
    Bytes(u64),
    Contiguous {
        count: u64,
        child: Datatype,
    },
    Vector {
        count: u64,
        blocklen: u64,
        /// Stride in units of the child extent.
        stride: i64,
        child: Datatype,
    },
    Hvector {
        count: u64,
        blocklen: u64,
        /// Stride in bytes.
        stride: i64,
        child: Datatype,
    },
    Indexed {
        /// (blocklen, displacement) in units of the child extent.
        blocks: Vec<(u64, i64)>,
        child: Datatype,
    },
    Hindexed {
        /// (blocklen, displacement-in-bytes).
        blocks: Vec<(u64, i64)>,
        child: Datatype,
    },
    Struct {
        /// (blocklen, displacement-in-bytes, type).
        fields: Vec<(u64, i64, Datatype)>,
    },
    Resized {
        lb: i64,
        extent: u64,
        child: Datatype,
    },
}

/// The flattened form: ordered byte runs plus bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flattened {
    /// `(displacement, length)` runs in typemap order.
    pub runs: Vec<(i64, u64)>,
    /// Total payload bytes (sum of run lengths).
    pub size: u64,
    /// Lower bound.
    pub lb: i64,
    /// Extent (ub − lb); the tiling period when used as a filetype.
    pub extent: u64,
}

impl Datatype {
    fn new(kind: Kind) -> Datatype {
        Datatype {
            inner: Arc::new(Node {
                kind,
                flat: OnceLock::new(),
            }),
        }
    }

    /// `n` contiguous bytes.
    pub fn bytes(n: u64) -> Datatype {
        Datatype::new(Kind::Bytes(n))
    }

    /// `count` repetitions of `child`, back to back (MPI_Type_contiguous).
    pub fn contiguous(count: u64, child: &Datatype) -> Datatype {
        Datatype::new(Kind::Contiguous {
            count,
            child: child.clone(),
        })
    }

    /// `count` blocks of `blocklen` children, starting every `stride`
    /// children (MPI_Type_vector).
    pub fn vector(count: u64, blocklen: u64, stride: i64, child: &Datatype) -> Datatype {
        Datatype::new(Kind::Vector {
            count,
            blocklen,
            stride,
            child: child.clone(),
        })
    }

    /// Like `vector`, but the stride is in bytes (MPI_Type_create_hvector).
    pub fn hvector(count: u64, blocklen: u64, stride: i64, child: &Datatype) -> Datatype {
        Datatype::new(Kind::Hvector {
            count,
            blocklen,
            stride,
            child: child.clone(),
        })
    }

    /// Blocks at child-extent-granular displacements (MPI_Type_indexed).
    pub fn indexed(blocks: &[(u64, i64)], child: &Datatype) -> Datatype {
        Datatype::new(Kind::Indexed {
            blocks: blocks.to_vec(),
            child: child.clone(),
        })
    }

    /// Blocks at byte displacements (MPI_Type_create_hindexed).
    pub fn hindexed(blocks: &[(u64, i64)], child: &Datatype) -> Datatype {
        Datatype::new(Kind::Hindexed {
            blocks: blocks.to_vec(),
            child: child.clone(),
        })
    }

    /// Heterogeneous fields at byte displacements (MPI_Type_create_struct).
    pub fn struct_of(fields: &[(u64, i64, Datatype)]) -> Datatype {
        Datatype::new(Kind::Struct {
            fields: fields.to_vec(),
        })
    }

    /// Override lb/extent (MPI_Type_create_resized).
    pub fn resized(child: &Datatype, lb: i64, extent: u64) -> Datatype {
        Datatype::new(Kind::Resized {
            lb,
            extent,
            child: child.clone(),
        })
    }

    /// An n-dimensional subarray in C (row-major) order
    /// (MPI_Type_create_subarray). The child must be "dense"
    /// (size == extent), which holds for elementary types.
    pub fn subarray(sizes: &[u64], subsizes: &[u64], starts: &[u64], child: &Datatype) -> Datatype {
        assert_eq!(sizes.len(), subsizes.len());
        assert_eq!(sizes.len(), starts.len());
        assert!(!sizes.is_empty(), "subarray needs at least one dimension");
        let f = child.flat();
        assert_eq!(
            f.size, f.extent,
            "subarray child must be dense (size == extent)"
        );
        for d in 0..sizes.len() {
            assert!(
                starts[d] + subsizes[d] <= sizes[d],
                "subarray dim {d} out of range"
            );
        }
        let el = f.extent;
        // Innermost dimension is a contiguous run of subsizes[last] elements;
        // outer dimensions become nested hindexed blocks.
        let last = sizes.len() - 1;
        let mut dt = Datatype::bytes(subsizes[last] * el);
        let mut row_bytes = el; // bytes per index step in the current dim
                                // Stride of dimension d = product of sizes of dims > d, in elements.
                                // Build from the innermost outward.
        for d in (0..last).rev() {
            let inner_stride: u64 = sizes[d + 1..].iter().product::<u64>() * el;
            // subsizes[d] blocks, each `dt`, spaced inner_stride apart.
            dt = Datatype::hvector(subsizes[d], 1, inner_stride as i64, &dt);
            row_bytes = inner_stride;
        }
        let _ = row_bytes;
        // Displacement of the subarray origin.
        let mut disp = 0u64;
        for d in 0..sizes.len() {
            let stride: u64 = sizes[d + 1..].iter().product::<u64>() * el;
            disp += starts[d] * stride;
        }
        let full: u64 = sizes.iter().product::<u64>() * el;
        let shifted = Datatype::hindexed(&[(1, disp as i64)], &dt);
        Datatype::resized(&shifted, 0, full)
    }

    /// Block-distributed 1-D darray helper: rank `rank` of `nprocs` owns a
    /// contiguous block of a `gsize`-element array (element size `el`),
    /// with the usual MPI block distribution (larger blocks first).
    pub fn darray_block(gsize: u64, el: u64, nprocs: u64, rank: u64) -> (Datatype, u64) {
        let base = gsize / nprocs;
        let rem = gsize % nprocs;
        let mine = base + u64::from(rank < rem);
        let offset = rank * base + rank.min(rem);
        let dt = Datatype::subarray(
            &[gsize],
            &[mine.max(1)],
            &[offset.min(gsize - 1)],
            &Datatype::bytes(el),
        );
        if mine == 0 {
            // Empty block: zero-size type with full extent.
            let empty = Datatype::resized(&Datatype::bytes(0), 0, gsize * el);
            return (empty, 0);
        }
        (dt, mine)
    }

    /// Total payload bytes.
    pub fn size(&self) -> u64 {
        self.flat().size
    }

    /// Extent (tiling period).
    pub fn extent(&self) -> u64 {
        self.flat().extent
    }

    /// Flatten to ordered, adjacent-merged byte runs.
    pub fn flatten(&self) -> Flattened {
        self.flat().clone()
    }

    /// The flattened form, borrowed from the datatype's memo.
    pub(crate) fn flat(&self) -> &Flattened {
        self.inner.flat.get_or_init(|| self.expand())
    }

    fn expand(&self) -> Flattened {
        let mut runs = Vec::new();
        self.emit(0, &mut runs);
        // Merge adjacent-in-sequence contiguous runs; drop empties.
        let mut merged: Vec<(i64, u64)> = Vec::with_capacity(runs.len());
        for (off, len) in runs {
            if len == 0 {
                continue;
            }
            match merged.last_mut() {
                Some((loff, llen)) if *loff + *llen as i64 == off => *llen += len,
                _ => merged.push((off, len)),
            }
        }
        let size = merged.iter().map(|r| r.1).sum();
        let (lb, ub) = self.bounds();
        Flattened {
            runs: merged,
            size,
            lb,
            extent: (ub - lb) as u64,
        }
    }

    /// Naive typemap expansion (every leaf byte-run, unmerged) — the
    /// reference semantics property tests compare against.
    pub fn type_map(&self) -> Vec<(i64, u64)> {
        let mut runs = Vec::new();
        self.emit(0, &mut runs);
        runs.retain(|r| r.1 > 0);
        runs
    }

    fn emit(&self, base: i64, out: &mut Vec<(i64, u64)>) {
        match &self.inner.kind {
            Kind::Bytes(n) => out.push((base, *n)),
            Kind::Contiguous { count, child } => {
                let ext = child.extent() as i64;
                for i in 0..*count {
                    child.emit(base + i as i64 * ext, out);
                }
            }
            Kind::Vector {
                count,
                blocklen,
                stride,
                child,
            } => {
                let ext = child.extent() as i64;
                for i in 0..*count {
                    for j in 0..*blocklen {
                        child.emit(base + (i as i64 * stride + j as i64) * ext, out);
                    }
                }
            }
            Kind::Hvector {
                count,
                blocklen,
                stride,
                child,
            } => {
                let ext = child.extent() as i64;
                for i in 0..*count {
                    for j in 0..*blocklen {
                        child.emit(base + i as i64 * stride + j as i64 * ext, out);
                    }
                }
            }
            Kind::Indexed { blocks, child } => {
                let ext = child.extent() as i64;
                for (bl, disp) in blocks {
                    for j in 0..*bl {
                        child.emit(base + (*disp + j as i64) * ext, out);
                    }
                }
            }
            Kind::Hindexed { blocks, child } => {
                let ext = child.extent() as i64;
                for (bl, disp) in blocks {
                    for j in 0..*bl {
                        child.emit(base + *disp + j as i64 * ext, out);
                    }
                }
            }
            Kind::Struct { fields } => {
                for (bl, disp, child) in fields {
                    let ext = child.extent() as i64;
                    for j in 0..*bl {
                        child.emit(base + *disp + j as i64 * ext, out);
                    }
                }
            }
            Kind::Resized { child, .. } => child.emit(base, out),
        }
    }

    /// (lb, ub) of the typemap, honoring Resized.
    fn bounds(&self) -> (i64, i64) {
        match &self.inner.kind {
            Kind::Bytes(n) => (0, *n as i64),
            Kind::Resized { lb, extent, .. } => (*lb, *lb + *extent as i64),
            Kind::Contiguous { count, child } => {
                let (clb, cub) = child.bounds();
                let ext = cub - clb;
                if *count == 0 {
                    (0, 0)
                } else {
                    (clb, clb + *count as i64 * ext)
                }
            }
            _ => {
                // General case: scan the typemap.
                let mut runs = Vec::new();
                self.emit(0, &mut runs);
                let mut lb = i64::MAX;
                let mut ub = i64::MIN;
                for (off, len) in &runs {
                    lb = lb.min(*off);
                    ub = ub.max(*off + *len as i64);
                }
                if lb > ub {
                    (0, 0)
                } else {
                    (lb, ub)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_is_one_run() {
        let f = Datatype::bytes(16).flatten();
        assert_eq!(f.runs, vec![(0, 16)]);
        assert_eq!((f.size, f.lb, f.extent), (16, 0, 16));
    }

    #[test]
    fn contiguous_merges_to_one_run() {
        let dt = Datatype::contiguous(4, &Datatype::bytes(8));
        let f = dt.flatten();
        assert_eq!(f.runs, vec![(0, 32)]);
        assert_eq!(f.extent, 32);
    }

    #[test]
    fn vector_strided_runs() {
        // 3 blocks of 2 elements (4B each), stride 5 elements.
        let el = Datatype::bytes(4);
        let dt = Datatype::vector(3, 2, 5, &el);
        let f = dt.flatten();
        assert_eq!(f.runs, vec![(0, 8), (20, 8), (40, 8)]);
        assert_eq!(f.size, 24);
        // Extent per MPI: spans to the end of the last block.
        assert_eq!(f.extent, 48);
    }

    #[test]
    fn vector_blocklen_equal_stride_is_contiguous() {
        let dt = Datatype::vector(4, 3, 3, &Datatype::bytes(1));
        assert_eq!(dt.flatten().runs, vec![(0, 12)]);
    }

    #[test]
    fn hvector_stride_in_bytes() {
        let dt = Datatype::hvector(2, 1, 100, &Datatype::bytes(10));
        assert_eq!(dt.flatten().runs, vec![(0, 10), (100, 10)]);
    }

    #[test]
    fn indexed_preserves_typemap_order() {
        // Deliberately out-of-order displacements: order must be preserved.
        let el = Datatype::bytes(2);
        let dt = Datatype::indexed(&[(1, 5), (2, 0)], &el);
        let f = dt.flatten();
        assert_eq!(f.runs, vec![(10, 2), (0, 4)]);
        assert_eq!(f.size, 6);
        assert_eq!(f.lb, 0);
        assert_eq!(f.extent, 12);
    }

    #[test]
    fn struct_with_mixed_children() {
        let a = Datatype::bytes(4);
        let b = Datatype::vector(2, 1, 2, &Datatype::bytes(2));
        let dt = Datatype::struct_of(&[(1, 0, a), (1, 8, b)]);
        let f = dt.flatten();
        // a at 0..4; b at 8: runs (8,2),(12,2).
        assert_eq!(f.runs, vec![(0, 4), (8, 2), (12, 2)]);
    }

    #[test]
    fn resized_controls_extent_not_data() {
        let dt = Datatype::resized(&Datatype::bytes(4), 0, 16);
        let f = dt.flatten();
        assert_eq!(f.runs, vec![(0, 4)]);
        assert_eq!(f.extent, 16);
        // Tiling a contiguous of resized: runs at 0 and 16.
        let two = Datatype::contiguous(2, &dt);
        assert_eq!(two.flatten().runs, vec![(0, 4), (16, 4)]);
    }

    #[test]
    fn nested_vector_of_vector() {
        // A 2-D tile: 2 rows of (2 blocks of 1×1B stride 2) rows 8B apart.
        let inner = Datatype::vector(2, 1, 2, &Datatype::bytes(1)); // 0,2; extent 3
        let resized = Datatype::resized(&inner, 0, 8);
        let outer = Datatype::contiguous(2, &resized);
        assert_eq!(outer.flatten().runs, vec![(0, 1), (2, 1), (8, 1), (10, 1)]);
    }

    #[test]
    fn subarray_2d_center_block() {
        // 4x4 matrix of 1-byte elements, take rows 1..3, cols 1..3.
        let dt = Datatype::subarray(&[4, 4], &[2, 2], &[1, 1], &Datatype::bytes(1));
        let f = dt.flatten();
        assert_eq!(f.runs, vec![(5, 2), (9, 2)]);
        assert_eq!(f.size, 4);
        assert_eq!(f.extent, 16);
        assert_eq!(f.lb, 0);
    }

    #[test]
    fn subarray_3d() {
        // 2x3x4 cube (1B elems), take [0..2, 1..2, 0..2].
        let dt = Datatype::subarray(&[2, 3, 4], &[2, 1, 2], &[0, 1, 0], &Datatype::bytes(1));
        let f = dt.flatten();
        // plane stride 12, row stride 4; origin = 0*12 + 1*4 + 0 = 4.
        assert_eq!(f.runs, vec![(4, 2), (16, 2)]);
        assert_eq!(f.extent, 24);
    }

    #[test]
    fn subarray_full_is_contiguous() {
        let dt = Datatype::subarray(&[3, 5], &[3, 5], &[0, 0], &Datatype::bytes(2));
        assert_eq!(dt.flatten().runs, vec![(0, 30)]);
    }

    #[test]
    fn subarray_element_wider_than_byte() {
        // 3x3 of 8-byte elements, column 1 (as a 3x1 subarray).
        let dt = Datatype::subarray(&[3, 3], &[3, 1], &[0, 1], &Datatype::bytes(8));
        let f = dt.flatten();
        assert_eq!(f.runs, vec![(8, 8), (32, 8), (56, 8)]);
    }

    #[test]
    fn darray_block_distribution() {
        // 10 elements over 3 ranks: 4,3,3.
        let (d0, n0) = Datatype::darray_block(10, 1, 3, 0);
        let (d1, n1) = Datatype::darray_block(10, 1, 3, 1);
        let (d2, n2) = Datatype::darray_block(10, 1, 3, 2);
        assert_eq!((n0, n1, n2), (4, 3, 3));
        assert_eq!(d0.flatten().runs, vec![(0, 4)]);
        assert_eq!(d1.flatten().runs, vec![(4, 3)]);
        assert_eq!(d2.flatten().runs, vec![(7, 3)]);
        // All tiles share the global extent.
        assert_eq!(d0.extent(), 10);
        assert_eq!(d2.extent(), 10);
    }

    #[test]
    fn size_and_extent_accessors() {
        let dt = Datatype::vector(2, 1, 4, &Datatype::bytes(3));
        assert_eq!(dt.size(), 6);
        assert_eq!(dt.extent(), 15); // (1*4 + 1)*3
    }

    #[test]
    fn flatten_equals_merged_typemap() {
        // flatten() must be exactly type_map() with adjacent runs merged.
        let dt = Datatype::struct_of(&[
            (2, 0, Datatype::bytes(4)),
            (1, 8, Datatype::vector(2, 2, 3, &Datatype::bytes(1))),
        ]);
        let tm = dt.type_map();
        let mut merged: Vec<(i64, u64)> = Vec::new();
        for (off, len) in tm {
            match merged.last_mut() {
                Some((lo, ll)) if *lo + *ll as i64 == off => *ll += len,
                _ => merged.push((off, len)),
            }
        }
        assert_eq!(dt.flatten().runs, merged);
    }

    #[test]
    fn zero_count_types_are_empty() {
        let dt = Datatype::contiguous(0, &Datatype::bytes(8));
        let f = dt.flatten();
        assert!(f.runs.is_empty());
        assert_eq!(f.size, 0);
    }
}
