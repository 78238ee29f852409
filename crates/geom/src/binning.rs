//! The unit-width bin sort applied to the point database before indexing.
//!
//! §IV-A of the paper: *"Before indexing, we sort the points `p_i ∈ D` into
//! bins in the x and y dimensions of unit width."* The packed R-tree then
//! fills each leaf MBB with `r` **consecutive** points of the sorted order,
//! so the quality of the leaves — and with it the number of candidates a
//! query has to filter — depends entirely on this ordering keeping nearby
//! points adjacent.
//!
//! The sort key is `(bin_y, bin_x)` with ties broken by the exact
//! coordinates, i.e. a row-major scan over a grid of `width`-sized cells.
//! Within a row of bins the scan direction alternates (a boustrophedon /
//! serpentine order) so consecutive bins are always spatially adjacent,
//! which measurably tightens leaf MBBs compared to a plain row-major scan.
//!
//! The paper presents the sort as a cheap pre-pass; as a comparison sort
//! that derives both keys per comparison it was nearly the whole index
//! build. [`bin_sort_with_width`] instead computes each key once and
//! orders the bins with an integer radix sort, in linear passes.

use crate::point::Point2;
use crate::PointId;

/// How consecutive bin rows are traversed when producing the final order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BinOrder {
    /// Every row is scanned left-to-right. The simplest reading of the
    /// paper's description.
    RowMajor,
    /// Rows alternate scan direction so the walk never jumps across the
    /// full dataset width between rows. Default.
    #[default]
    Serpentine,
}

/// Computes the permutation that sorts `points` into unit-width bins:
/// [`bin_sort_with_width`] at width 1.
///
/// Returns a vector `perm` such that `perm[i]` is the index (into `points`)
/// of the `i`-th point in binned order. The caller applies the permutation
/// to whatever parallel arrays it maintains.
pub fn bin_sort(points: &[Point2], order: BinOrder) -> Vec<PointId> {
    bin_sort_with_width(points, 1.0, order)
}

/// [`bin_sort`] with an explicit bin width.
///
/// The paper uses unit-width bins because its datasets live in degree-scale
/// TEC map coordinates; for other embeddings a width of roughly the largest
/// ε of interest keeps each ε-query touching O(1) bins.
///
/// **The order.** Point `p` lies in row `floor(p.y / width)` and column
/// `floor(p.x / width)`, each saturating at the ends of `i64`. Rows
/// ascend. Columns ascend within a row, and descend in odd rows under
/// [`BinOrder::Serpentine`]. Within a bin, points order by `x` (descending
/// where the row's columns do), then by `y`, compared as `f64` compares
/// them, so `-0.0 == 0.0`. Points equal on all of these keep ascending
/// caller id. [`bin_sort_reference`] is the same order as a comparison
/// sort.
///
/// **The passes.** Each point's cell is computed once into a compact
/// array, and a stable LSD radix sort orders it over only the bytes the
/// grid's extent needs: the cell index `row · columns + column`, or, when
/// the grid has more than 2⁶⁴ cells, the column bytes and then the row
/// bytes. Each bin's run, which arrives in ascending caller id, is then
/// sorted on its points' coordinates.
///
/// **Non-finite coordinates** are rejected by debug assertion. In release
/// the result is still a permutation of `0..n`, in an unspecified order.
/// Every caller in the workspace rejects non-finite points before sorting.
///
/// # Panics
///
/// Panics if `width` is not strictly positive and finite, or if there are
/// more points than a [`PointId`] can number.
pub fn bin_sort_with_width(points: &[Point2], width: f64, order: BinOrder) -> Vec<PointId> {
    assert!(
        width > 0.0 && width.is_finite(),
        "bin width must be positive and finite, got {width}"
    );
    debug_assert!(
        points.iter().all(Point2::is_finite),
        "bin_sort requires finite coordinates"
    );
    assert!(
        points.len() <= PointId::MAX as usize,
        "dataset exceeds PointId capacity"
    );
    if points.is_empty() {
        return Vec::new();
    }
    let grid = Grid::spanning(points, width, order);

    // Each point's cell, computed once. A grid too large for a 64-bit
    // cell index sorts on columns first, holding each point's row (by
    // caller id) in `side`; the second stage swaps the two, so that
    // afterwards `side` holds the columns.
    let mut side: Vec<u64> = Vec::new();
    let mut cells: Vec<Keyed> = Vec::with_capacity(points.len());
    for (p, id) in points.iter().zip(0..) {
        let (row, col) = grid.cell(p);
        let key = match grid.stride {
            Some(stride) => row.wrapping_mul(stride).wrapping_add(col),
            None => {
                side.push(row);
                col
            }
        };
        cells.push(Keyed { key, id });
    }
    let mut spare = Vec::new();
    match grid.stride {
        Some(stride) => {
            let last_cell = grid.max_row.wrapping_mul(stride).wrapping_add(grid.max_col);
            radix_sort(&mut cells, &mut spare, significant_bytes(last_cell));
        }
        None => {
            radix_sort(&mut cells, &mut spare, significant_bytes(grid.max_col));
            for cell in &mut cells {
                let row = &mut side[cell.id as usize];
                (cell.key, *row) = (*row, cell.key);
            }
            radix_sort(&mut cells, &mut spare, significant_bytes(grid.max_row));
        }
    }
    drop(spare);

    // Order each bin's run on its points' coordinates; the radix sort
    // is stable, so the id completing the key breaks ties by caller id.
    let same_bin = |a: Keyed, b: Keyed| {
        a.key == b.key && (side.is_empty() || side[a.id as usize] == side[b.id as usize])
    };
    let mut perm = Vec::with_capacity(cells.len());
    let mut run: Vec<(u64, u64, PointId)> = Vec::new();
    for bin in cells.chunk_by(|&a, &b| same_bin(a, b)) {
        if let [only] = bin {
            perm.push(only.id);
            continue;
        }
        let flip = grid.flips(grid.bin(points[bin[0].id as usize].y));
        run.clear();
        run.extend(bin.iter().map(|c| {
            let p = points[c.id as usize];
            let x = if flip { -p.x } else { p.x };
            (ordered_bits(x), ordered_bits(p.y), c.id)
        }));
        run.sort_unstable();
        perm.extend(run.iter().map(|&(_, _, id)| id));
    }
    perm
}

/// The comparison-sort formulation of [`bin_sort_with_width`]: the same
/// order, from a stable comparator that derives the key
/// `(row, ±column, ±x, y)` of both operands on every comparison. It costs
/// O(n log n) key derivations; it is kept as the oracle the linear sort
/// is tested against, and requires finite coordinates.
///
/// # Panics
///
/// Panics if `width` is not strictly positive and finite.
pub fn bin_sort_reference(points: &[Point2], width: f64, order: BinOrder) -> Vec<PointId> {
    assert!(
        width > 0.0 && width.is_finite(),
        "bin width must be positive and finite, got {width}"
    );
    let key = |p: &Point2| {
        let by = (p.y / width).floor() as i64;
        let bx = i128::from((p.x / width).floor() as i64);
        if order == BinOrder::Serpentine && by.rem_euclid(2) == 1 {
            (by, -bx, -p.x, p.y)
        } else {
            (by, bx, p.x, p.y)
        }
    };
    let mut perm: Vec<PointId> = (0..points.len() as PointId).collect();
    perm.sort_by(|&a, &b| {
        key(&points[a as usize])
            .partial_cmp(&key(&points[b as usize]))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    perm
}

/// The bins a point set spans, and each point's cell in them.
struct Grid {
    width: f64,
    serpentine: bool,
    /// The lowest row, and the lowest and highest column.
    row0: i64,
    col0: i64,
    col1: i64,
    /// The largest row and column offsets: rows and columns spanned,
    /// minus one.
    max_row: u64,
    max_col: u64,
    /// Columns per row of the cell index `row · stride + column`, or
    /// `None` when the grid has more than 2⁶⁴ cells. `Some(0)` stands for
    /// 2⁶⁴ columns, which fit only in a single row.
    stride: Option<u64>,
}

impl Grid {
    /// The grid over `points`' bins. Rows and columns are monotone in
    /// the coordinates, so the extreme bins are the bins of the extremes.
    fn spanning(points: &[Point2], width: f64, order: BinOrder) -> Self {
        let (mut lo, mut hi) = (
            Point2::new(f64::INFINITY, f64::INFINITY),
            Point2::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        );
        for p in points {
            lo = lo.min(p);
            hi = hi.max(p);
        }
        let bin = |v: f64| (v / width).floor() as i64;
        let (row0, col0, col1) = (bin(lo.y), bin(lo.x), bin(hi.x));
        // Zero when no coordinate is a number, and the range is empty.
        let span = |lo: i64, hi: i64| {
            if hi < lo {
                0
            } else {
                hi.wrapping_sub(lo) as u64
            }
        };
        let (max_row, max_col) = (span(row0, bin(hi.y)), span(col0, col1));
        let cells = (u128::from(max_row) + 1).checked_mul(u128::from(max_col) + 1);
        Self {
            width,
            serpentine: order == BinOrder::Serpentine,
            row0,
            col0,
            col1,
            max_row,
            max_col,
            stride: cells
                .is_some_and(|cells| cells <= 1 << 64)
                .then(|| max_col.wrapping_add(1)),
        }
    }

    /// The row or column of coordinate `v`.
    #[inline]
    fn bin(&self, v: f64) -> i64 {
        (v / self.width).floor() as i64
    }

    /// Whether row `by` runs its columns in descending order.
    #[inline]
    fn flips(&self, by: i64) -> bool {
        self.serpentine && by & 1 == 1
    }

    /// `p`'s (row, column) offsets from the grid's first cell, the column
    /// mirrored in a row that [flips](Grid::flips). Wrapping arithmetic
    /// is exact for finite points and keeps any other point panic-free.
    #[inline]
    fn cell(&self, p: &Point2) -> (u64, u64) {
        let (by, bx) = (self.bin(p.y), self.bin(p.x));
        let col = if self.flips(by) {
            self.col1.wrapping_sub(bx)
        } else {
            bx.wrapping_sub(self.col0)
        };
        (by.wrapping_sub(self.row0) as u64, col as u64)
    }
}

/// A radix-sort entry: a cell index (or one half of a cell) and the
/// point's caller id, packed to 12 bytes.
#[derive(Clone, Copy)]
#[repr(C, packed(4))]
struct Keyed {
    key: u64,
    id: PointId,
}

/// Bytes needed to write `max` (the largest key of a radix stage).
fn significant_bytes(max: u64) -> usize {
    (u64::BITS - max.leading_zeros()).div_ceil(8) as usize
}

/// Stable LSD radix sort of `entries` on the low `bytes` bytes of their
/// keys, scattering through `spare`. A byte on which every key agrees is
/// counted but not scattered.
fn radix_sort(entries: &mut Vec<Keyed>, spare: &mut Vec<Keyed>, bytes: usize) {
    let n = entries.len();
    let mut counts = vec![[0usize; 256]; bytes];
    for entry in entries.iter() {
        let key = entry.key;
        for (b, count) in counts.iter_mut().enumerate() {
            count[(key >> (8 * b)) as usize & 0xff] += 1;
        }
    }
    for (b, count) in counts.iter().enumerate() {
        if count.contains(&n) {
            continue;
        }
        let mut next = 0;
        let mut offsets: [usize; 256] = std::array::from_fn(|digit| {
            let at = next;
            next += count[digit];
            at
        });
        spare.resize(n, Keyed { key: 0, id: 0 });
        for &entry in entries.iter() {
            let digit = (entry.key >> (8 * b)) as usize & 0xff;
            spare[offsets[digit]] = entry;
            offsets[digit] += 1;
        }
        std::mem::swap(entries, spare);
    }
}

/// `v`'s bits as an integer that orders as `v` does as an `f64`, with
/// `-0.0` and `0.0` alike.
#[inline]
fn ordered_bits(v: f64) -> u64 {
    let bits = (v + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Applies a permutation produced by [`bin_sort`], returning the reordered
/// point vector.
pub fn apply_permutation(points: &[Point2], perm: &[PointId]) -> Vec<Point2> {
    debug_assert_eq!(points.len(), perm.len());
    perm.iter().map(|&i| points[i as usize]).collect()
}

/// Inverts a permutation: `inv[perm[i]] = i`.
///
/// Needed to translate indexes of the *sorted* database back to the
/// caller's original point ids (e.g. when reporting cluster membership for
/// externally supplied data).
pub fn invert_permutation(perm: &[PointId]) -> Vec<PointId> {
    unpermute(perm, |i| i as PointId)
}

/// Scatters values listed in sorted order back to the caller's order:
/// `out[perm[i]] = sorted(i)` for each position `i` of a permutation
/// [`bin_sort`] produced. The one loop that maps sorted order back;
/// points, labels and the inverse itself all go through it.
pub fn unpermute<T: Copy + Default>(
    perm: &[PointId],
    mut sorted: impl FnMut(usize) -> T,
) -> Vec<T> {
    let mut out = vec![T::default(); perm.len()];
    for (i, &p) in perm.iter().enumerate() {
        out[p as usize] = sorted(i);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(coords: &[(f64, f64)]) -> Vec<Point2> {
        coords.iter().map(|&(x, y)| Point2::new(x, y)).collect()
    }

    #[test]
    fn sorts_by_row_then_column() {
        let points = pts(&[(5.5, 0.5), (0.5, 0.5), (0.5, 5.5), (2.5, 0.5)]);
        let perm = bin_sort(&points, BinOrder::RowMajor);
        let sorted = apply_permutation(&points, &perm);
        assert_eq!(
            sorted,
            pts(&[(0.5, 0.5), (2.5, 0.5), (5.5, 0.5), (0.5, 5.5)])
        );
    }

    #[test]
    fn serpentine_reverses_odd_rows() {
        // Row 0 (y in [0,1)) left-to-right, row 1 (y in [1,2)) right-to-left.
        let points = pts(&[(0.5, 1.5), (2.5, 1.5), (0.5, 0.5), (2.5, 0.5)]);
        let perm = bin_sort(&points, BinOrder::Serpentine);
        let sorted = apply_permutation(&points, &perm);
        assert_eq!(
            sorted,
            pts(&[(0.5, 0.5), (2.5, 0.5), (2.5, 1.5), (0.5, 1.5)])
        );
    }

    #[test]
    fn permutation_is_a_bijection() {
        let points = pts(&[(3.0, 1.0), (1.0, 3.0), (2.0, 2.0), (0.0, 0.0), (1.5, 0.2)]);
        let perm = bin_sort(&points, BinOrder::Serpentine);
        let mut seen = vec![false; points.len()];
        for &i in &perm {
            assert!(!seen[i as usize], "duplicate index {i}");
            seen[i as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn invert_roundtrips() {
        let points = pts(&[(9.0, 9.0), (0.0, 0.0), (5.0, 5.0), (1.0, 8.0)]);
        let perm = bin_sort(&points, BinOrder::Serpentine);
        let inv = invert_permutation(&perm);
        for orig in 0..points.len() as PointId {
            assert_eq!(perm[inv[orig as usize] as usize], orig);
        }
    }

    #[test]
    fn custom_width_changes_binning() {
        // With width 10 all these share a bin and sort by exact coords.
        let points = pts(&[(5.0, 9.0), (1.0, 2.0), (3.0, 2.0)]);
        let perm = bin_sort_with_width(&points, 10.0, BinOrder::RowMajor);
        let sorted = apply_permutation(&points, &perm);
        assert_eq!(sorted[0], Point2::new(1.0, 2.0));
        assert_eq!(sorted[1], Point2::new(3.0, 2.0));
    }

    #[test]
    fn negative_coordinates_bin_correctly() {
        // floor(-0.5) = -1, so (-0.5, *) precedes (0.5, *) in row-major x.
        let points = pts(&[(0.5, 0.5), (-0.5, 0.5)]);
        let perm = bin_sort(&points, BinOrder::RowMajor);
        let sorted = apply_permutation(&points, &perm);
        assert_eq!(sorted[0], Point2::new(-0.5, 0.5));
    }

    #[test]
    #[should_panic(expected = "bin width must be positive")]
    fn zero_width_rejected() {
        bin_sort_with_width(&[], 0.0, BinOrder::RowMajor);
    }

    #[test]
    fn empty_input_is_fine() {
        assert!(bin_sort(&[], BinOrder::Serpentine).is_empty());
    }

    #[test]
    fn signed_zeros_tie_and_keep_caller_order() {
        // -0.0 == 0.0 as f64: all five sit in column 0, y = -0.0 sorts
        // as 0.0, and each pair at one y ties on every key, so it keeps
        // ascending id, in the odd row (where x is negated) too.
        let points = pts(&[
            (0.0, 0.5),
            (-0.0, 0.5),
            (0.0, -0.0),
            (-0.0, 1.5),
            (0.0, 1.5),
        ]);
        for order in [BinOrder::RowMajor, BinOrder::Serpentine] {
            assert_eq!(bin_sort(&points, order), vec![2, 0, 1, 3, 4]);
            assert_eq!(
                bin_sort(&points, order),
                bin_sort_reference(&points, 1.0, order)
            );
        }
    }

    #[test]
    fn saturated_bins_do_not_overflow() {
        // ±1e300 saturates both bins at the ends of i64; an odd saturated
        // row (i64::MAX) flips its columns, which must not negate
        // i64::MIN. Runs in debug, where an overflow would panic.
        let points = pts(&[
            (1e300, 1e300),
            (-1e300, 1e300),
            (0.5, 1e300),
            (-1e300, -1e300),
            (1e300, -1e300),
            (0.5, 0.5),
            (-1e300, 0.5),
        ]);
        for order in [BinOrder::RowMajor, BinOrder::Serpentine] {
            let perm = bin_sort(&points, order);
            assert_eq!(perm, bin_sort_reference(&points, 1.0, order));
        }
        // Row i64::MIN ascends, row 0 ascends, row i64::MAX descends.
        assert_eq!(
            bin_sort(&points, BinOrder::Serpentine),
            vec![3, 4, 6, 5, 0, 2, 1]
        );
    }

    #[test]
    fn a_grid_beyond_64_bit_cells_sorts_columns_then_rows() {
        // 8e15 rows × 8e15 columns at width 0.25: no 64-bit cell index.
        let points = pts(&[
            (1e15, -1e15),
            (-1e15, 1e15),
            (3.0, 2.25),
            (-1e15, -1e15),
            (2.75, 2.25),
            (1e15, 1e15),
            (-3.0, 2.5),
        ]);
        for order in [BinOrder::RowMajor, BinOrder::Serpentine] {
            assert_eq!(
                bin_sort_with_width(&points, 0.25, order),
                bin_sort_reference(&points, 0.25, order)
            );
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "requires finite coordinates")
    )]
    fn non_finite_points_still_get_a_permutation() {
        let points = pts(&[
            (f64::NAN, 0.5),
            (1.0, f64::INFINITY),
            (0.5, 0.5),
            (f64::NEG_INFINITY, f64::NAN),
            (f64::NAN, f64::NAN),
        ]);
        let mut perm = bin_sort(&points, BinOrder::Serpentine);
        perm.sort_unstable();
        assert_eq!(perm, vec![0, 1, 2, 3, 4]);
    }
}
