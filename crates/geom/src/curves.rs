//! The Hilbert space-filling curve.
//!
//! The paper's packed R-tree fills leaves from a unit-width bin sort
//! (§IV-A). A space-filling curve is the classic alternative ordering
//! for packed trees ("packed Hilbert R-tree", Kamel & Faloutsos 1993):
//! it maps 2-D positions to a 1-D key whose consecutive values are
//! spatially adjacent, which tightens leaf MBBs. The index ablation bench
//! compares it against the bin sort and STR.
//!
//! The curve operates on a `2^ORDER × 2^ORDER` integer lattice; the
//! helpers here quantize `f64` coordinates into it.

use crate::extent::Extent;
use crate::point::Point2;

/// Curve resolution: 16 bits per axis → 32-bit keys, fine enough that a
/// million points over any realistic extent rarely share a cell.
pub const CURVE_ORDER: u32 = 16;
const SIDE: u32 = 1 << CURVE_ORDER;

/// Hilbert curve key of a lattice cell (iterative rotation algorithm).
pub fn hilbert_key(x: u32, y: u32) -> u64 {
    debug_assert!(x < SIDE && y < SIDE);
    let (mut x, mut y) = (x, y);
    let mut rx: u32;
    let mut ry: u32;
    let mut d: u64 = 0;
    let mut s: u32 = SIDE / 2;
    while s > 0 {
        rx = u32::from((x & s) > 0);
        ry = u32::from((y & s) > 0);
        d += u64::from(s) * u64::from(s) * u64::from((3 * rx) ^ ry);
        // Rotate the quadrant (reflection is over the full lattice here;
        // the decoder reflects over the current block size — the classic
        // asymmetry of the iterative Hilbert transform).
        if ry == 0 {
            if rx == 1 {
                x = (SIDE - 1) - x;
                y = (SIDE - 1) - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        s /= 2;
    }
    d
}

/// Inverse of [`hilbert_key`].
pub fn hilbert_decode(key: u64) -> (u32, u32) {
    let (mut x, mut y) = (0u32, 0u32);
    let mut t = key;
    let mut s: u32 = 1;
    while s < SIDE {
        let rx = 1 & (t / 2) as u32;
        let ry = 1 & ((t as u32) ^ rx);
        // Rotate back.
        if ry == 0 {
            if rx == 1 {
                x = s.wrapping_sub(1).wrapping_sub(x);
                y = s.wrapping_sub(1).wrapping_sub(y);
            }
            std::mem::swap(&mut x, &mut y);
        }
        x += s * rx;
        y += s * ry;
        t /= 4;
        s *= 2;
    }
    (x, y)
}

/// Quantizes a point within `extent` onto the curve lattice.
#[inline]
pub fn quantize(p: &Point2, extent: &Extent) -> (u32, u32) {
    let (u, v) = extent.normalize(p);
    let max = (SIDE - 1) as f64;
    (
        (u.clamp(0.0, 1.0) * max).round() as u32,
        (v.clamp(0.0, 1.0) * max).round() as u32,
    )
}

/// Sorting permutation of `points` by Hilbert key (ties by original
/// index, so the order is stable and deterministic).
pub fn hilbert_sort(points: &[Point2]) -> Vec<crate::PointId> {
    assert!(points.len() <= crate::PointId::MAX as usize);
    let Some(extent) = Extent::of_points(points) else {
        return Vec::new();
    };
    let mut keyed: Vec<(u64, crate::PointId)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let (x, y) = quantize(p, &extent);
            (hilbert_key(x, y), i as crate::PointId)
        })
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hilbert_roundtrips() {
        for &(x, y) in &[(0u32, 0u32), (1, 0), (0, 1), (12345, 54321), (65535, 65535)] {
            assert_eq!(hilbert_decode(hilbert_key(x, y)), (x, y), "({x}, {y})");
        }
    }

    #[test]
    fn hilbert_keys_are_a_bijection_on_a_small_grid() {
        // Exhaustively check a 64×64 corner of the lattice.
        let mut seen = std::collections::HashSet::new();
        for x in 0..64u32 {
            for y in 0..64u32 {
                assert!(seen.insert(hilbert_key(x, y)), "collision at ({x}, {y})");
            }
        }
    }

    #[test]
    fn hilbert_consecutive_cells_are_lattice_neighbors() {
        // The defining property: consecutive curve positions differ by
        // exactly one lattice step. Walk a stretch of the curve.
        for d in 0..4096u64 {
            let (x0, y0) = hilbert_decode(d);
            let (x1, y1) = hilbert_decode(d + 1);
            let manhattan = x0.abs_diff(x1) + y0.abs_diff(y1);
            assert_eq!(manhattan, 1, "jump between d={d} and d+1");
        }
    }

    #[test]
    fn sort_is_a_permutation() {
        let points: Vec<Point2> = (0..200)
            .map(|i| {
                let f = i as f64;
                Point2::new((f * 7.3) % 19.0, (f * 3.1) % 13.0)
            })
            .collect();
        let mut sorted = hilbert_sort(&points);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn hilbert_sort_improves_successor_locality_over_random_order() {
        // Sum of consecutive-point distances should drop sharply after a
        // Hilbert sort on scattered data.
        let points: Vec<Point2> = (0..500)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                Point2::new((h >> 40) as f64 / 1e3, ((h >> 16) & 0xFFFFFF) as f64 / 1e5)
            })
            .collect();
        let tour = |perm: &[u32]| -> f64 {
            perm.windows(2)
                .map(|w| points[w[0] as usize].dist(&points[w[1] as usize]))
                .sum()
        };
        let identity: Vec<u32> = (0..points.len() as u32).collect();
        let sorted = hilbert_sort(&points);
        assert!(tour(&sorted) < tour(&identity) * 0.5);
    }

    #[test]
    fn empty_and_single_point() {
        assert!(hilbert_sort(&[]).is_empty());
        assert_eq!(hilbert_sort(&[Point2::new(1.0, 1.0)]), vec![0]);
    }
}
