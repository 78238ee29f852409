//! The leaf-scan kernels of the packed tree's ε-searches, compiled once
//! per x86 vector level.
//!
//! Every ε-search of a [`crate::PackedRTree`] ends in a scan of the
//! `xs`/`ys` runs of the leaves it reaches, and on the from-scratch
//! clustering workloads that scan is nearly all of the time. The release
//! build targets baseline x86-64, whose SSE2 holds two `f64` lanes, while
//! most hosts it runs on have AVX2 (four) and many AVX-512 (eight, and
//! mask registers for the keyed pass's mixed `f64`/`u32` lanes). So each
//! kernel's row loop — the loop over a list of leaves, testing each box
//! against the query and scanning the run of each one that meets it — is
//! compiled three times: at the baseline, with `avx2`, and with
//! `avx512f,avx512vl,avx512bw,avx512dq`. [`Level::host`] detects the
//! widest the host supports once and keeps it in a `static`; a search
//! reads it once and hands its whole leaf list to that level's copy, so
//! one search is one dispatch (the walk's list comes in chunks of 64
//! leaves). Off x86_64 only the baseline is compiled.
//!
//! The kernels:
//!
//! - [`Level::count`]: `|N_ε(center)|`, one compare and add per point.
//! - [`Level::count_keyed`]: the fused pass. One pass over a leaf's
//!   coordinates and keys adds its hits to the count and notes whether
//!   any hit has a wanted key; only a leaf with such a hit is scanned
//!   again, by the scalar, out-of-line [`push_wanted`], to push those
//!   hits.
//! - [`Level::collect`]: the materialising compaction of
//!   `epsilon_neighbors`, which writes every candidate's id and advances
//!   its cursor by the predicate. Its stores keep the compaction
//!   scalar at every level; the row loop around it is compiled per
//!   level like the others.
//!
//! Each per-leaf body is a pure function over slices that returns its
//! result by value, so it vectorises at the width its row loop was
//! compiled for. DESIGN.md §9 "Vector width" has the measurements.
//!
//! Exactness. No intrinsics and no `mul_add`: the predicate is
//! `dx * dx + dy * dy <= ε²`, evaluated in that order at every level, and
//! Rust never contracts a multiply and an add into an FMA. Every level
//! therefore computes the same predicate bit for bit — NaN coordinates
//! compare false, `-0.0` equals `0.0` — and returns the same count and
//! the same kept ids in the same order.

use std::ops::Range;
use std::sync::OnceLock;

use vbp_geom::{Mbb, Point2, PointId};

/// One search's leaf scan: the tree's coordinate columns and leaf boxes,
/// the query box and the predicate.
pub(crate) struct Scan<'a> {
    /// All x coordinates, in tree order.
    pub(crate) xs: &'a [f64],
    /// All y coordinates, in tree order.
    pub(crate) ys: &'a [f64],
    /// The leaf MBBs.
    pub(crate) boxes: &'a [Mbb],
    /// Points per leaf.
    pub(crate) r: usize,
    /// The ε-box around `center`.
    pub(crate) query: Mbb,
    /// The search's centre.
    pub(crate) center: Point2,
    /// `ε²`.
    pub(crate) eps_sq: f64,
}

impl Scan<'_> {
    /// The points of `leaf` if its box meets the query.
    #[inline(always)]
    fn reached(&self, leaf: u32) -> Option<Range<usize>> {
        let leaf = leaf as usize;
        self.boxes[leaf]
            .intersects(&self.query)
            .then(|| leaf * self.r..((leaf + 1) * self.r).min(self.xs.len()))
    }

    /// `dist²(center, (x, y)) ≤ ε²`, in the one order every level uses.
    #[inline(always)]
    fn within(&self, x: f64, y: f64) -> bool {
        let (dx, dy) = (x - self.center.x, y - self.center.y);
        dx * dx + dy * dy <= self.eps_sq
    }
}

/// A keyed scan's `want` as `(lo, hi − lo)`: `lo ≤ k ≤ hi` is then one
/// unsigned compare, `k.wrapping_sub(lo) ≤ span`.
pub(crate) type Want = (u32, u32);

/// A vector level the kernels are compiled at. This module builds a
/// level above the baseline only after `is_x86_feature_detected!` found
/// every feature its kernels are compiled with ([`Level::detect`], and
/// the tests' `Level::supported`), and the field is private to it; that
/// is what makes calling those kernels sound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Level(Isa);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Isa {
    Base,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Level {
    /// The baseline: SSE2 on x86_64, the target's own width elsewhere.
    #[cfg(test)]
    const BASE: Self = Self(Isa::Base);

    /// The widest level this host supports, detected on the first call.
    #[inline]
    pub(crate) fn host() -> Self {
        static HOST: OnceLock<Level> = OnceLock::new();
        *HOST.get_or_init(Self::detect)
    }

    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if has_avx512() {
                return Self(Isa::Avx512);
            }
            if std::is_x86_feature_detected!("avx2") {
                return Self(Isa::Avx2);
            }
        }
        Self(Isa::Base)
    }

    /// Every level this host supports, the baseline first.
    #[cfg(test)]
    fn supported() -> Vec<Self> {
        let mut levels = vec![Self::BASE];
        #[cfg(target_arch = "x86_64")]
        {
            if std::is_x86_feature_detected!("avx2") {
                levels.push(Self(Isa::Avx2));
            }
            if has_avx512() {
                levels.push(Self(Isa::Avx512));
            }
        }
        levels
    }

    /// The hits among the points of the leaves in `row` that meet the
    /// query.
    #[inline]
    pub(crate) fn count(self, scan: &Scan, row: &[u32]) -> usize {
        match self.0 {
            Isa::Base => base::count(scan, row),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: a `Level` is `Avx2` only where avx2 was detected.
            Isa::Avx2 => unsafe { avx2::count(scan, row) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: a `Level` is `Avx512` only where `has_avx512` found
            // avx512f, avx512vl, avx512bw and avx512dq.
            Isa::Avx512 => unsafe { avx512::count(scan, row) },
        }
    }

    /// [`Level::count`], appending to `out` the hits whose key is wanted,
    /// leaf by leaf in `row`'s order and in tree order within a leaf.
    #[inline]
    pub(crate) fn count_keyed(
        self,
        scan: &Scan,
        row: &[u32],
        keys: &[u32],
        want: Want,
        out: &mut Vec<PointId>,
    ) -> usize {
        match self.0 {
            Isa::Base => base::count_keyed(scan, row, keys, want, out),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: a `Level` is `Avx2` only where avx2 was detected.
            Isa::Avx2 => unsafe { avx2::count_keyed(scan, row, keys, want, out) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: a `Level` is `Avx512` only where `has_avx512` found
            // avx512f, avx512vl, avx512bw and avx512dq.
            Isa::Avx512 => unsafe { avx512::count_keyed(scan, row, keys, want, out) },
        }
    }

    /// Appends every hit to `out`, in the order of [`Level::count_keyed`].
    #[inline]
    pub(crate) fn collect(self, scan: &Scan, row: &[u32], out: &mut Vec<PointId>) {
        match self.0 {
            Isa::Base => base::collect(scan, row, out),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: a `Level` is `Avx2` only where avx2 was detected.
            Isa::Avx2 => unsafe { avx2::collect(scan, row, out) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: a `Level` is `Avx512` only where `has_avx512` found
            // avx512f, avx512vl, avx512bw and avx512dq.
            Isa::Avx512 => unsafe { avx512::collect(scan, row, out) },
        }
    }
}

/// Whether this host has every feature the AVX-512 kernels enable.
#[cfg(target_arch = "x86_64")]
fn has_avx512() -> bool {
    std::is_x86_feature_detected!("avx512f")
        && std::is_x86_feature_detected!("avx512vl")
        && std::is_x86_feature_detected!("avx512bw")
        && std::is_x86_feature_detected!("avx512dq")
}

/// A module of the three row loops, each compiled out of line with the
/// given features enabled: none for the baseline, so safe to call
/// anywhere; otherwise callable only on a host that has them, which the
/// [`Level`] dispatch alone ensures.
macro_rules! row_loops {
    ($(#[$cfg:meta])* mod $name:ident $(, $features:literal)?) => {
        $(#[$cfg])*
        mod $name {
            use super::*;

            #[inline(never)]
            $(#[target_feature(enable = $features)])?
            pub(super) fn count(scan: &Scan, row: &[u32]) -> usize {
                super::count(scan, row)
            }

            #[inline(never)]
            $(#[target_feature(enable = $features)])?
            pub(super) fn count_keyed(
                scan: &Scan,
                row: &[u32],
                keys: &[u32],
                want: Want,
                out: &mut Vec<PointId>,
            ) -> usize {
                super::count_keyed(scan, row, keys, want, out)
            }

            #[inline(never)]
            $(#[target_feature(enable = $features)])?
            pub(super) fn collect(scan: &Scan, row: &[u32], out: &mut Vec<PointId>) {
                super::collect(scan, row, out)
            }
        }
    };
}

row_loops!(mod base);
row_loops!(#[cfg(target_arch = "x86_64")] mod avx2, "avx2");
row_loops!(#[cfg(target_arch = "x86_64")] mod avx512, "avx512f,avx512vl,avx512bw,avx512dq");

/// The row loop of [`Level::count`].
#[inline(always)]
fn count(scan: &Scan, row: &[u32]) -> usize {
    let mut count = 0;
    for &leaf in row {
        if let Some(run) = scan.reached(leaf) {
            count += count_run(scan, &scan.xs[run.clone()], &scan.ys[run]);
        }
    }
    count
}

/// The row loop of [`Level::count_keyed`].
#[inline(always)]
fn count_keyed(
    scan: &Scan,
    row: &[u32],
    keys: &[u32],
    want: Want,
    out: &mut Vec<PointId>,
) -> usize {
    let mut count = 0;
    for &leaf in row {
        if let Some(run) = scan.reached(leaf) {
            let (xs, ys) = (&scan.xs[run.clone()], &scan.ys[run.clone()]);
            let (hits, any) = count_keyed_run(scan, xs, ys, &keys[run.clone()], want);
            count += hits;
            if any {
                push_wanted(scan, run, keys, want, out);
            }
        }
    }
    count
}

/// The row loop of [`Level::collect`].
#[inline(always)]
fn collect(scan: &Scan, row: &[u32], out: &mut Vec<PointId>) {
    for &leaf in row {
        if let Some(run) = scan.reached(leaf) {
            let base = out.len();
            out.resize(base + run.len(), 0);
            let (xs, ys) = (&scan.xs[run.clone()], &scan.ys[run.clone()]);
            let kept = compact_run(scan, xs, ys, run.start, &mut out[base..]);
            out.truncate(base + kept);
        }
    }
}

/// The hits of one leaf's run.
#[inline(always)]
fn count_run(scan: &Scan, xs: &[f64], ys: &[f64]) -> usize {
    let mut hits = 0;
    for (&x, &y) in xs.iter().zip(ys) {
        hits += usize::from(scan.within(x, y));
    }
    hits
}

/// The hits of one leaf's run, and whether any of them has a wanted key.
#[inline(always)]
fn count_keyed_run(
    scan: &Scan,
    xs: &[f64],
    ys: &[f64],
    keys: &[u32],
    (lo, span): Want,
) -> (usize, bool) {
    let (mut hits, mut any) = (0, false);
    for ((&x, &y), &k) in xs.iter().zip(ys).zip(keys) {
        let hit = scan.within(x, y);
        hits += usize::from(hit);
        any |= hit & (k.wrapping_sub(lo) <= span);
    }
    (hits, any)
}

/// The second pass over a leaf with a wanted hit: pushes each such hit.
/// A branch per point, so it stays scalar and out of the row loop.
#[inline(never)]
fn push_wanted(
    scan: &Scan,
    run: Range<usize>,
    keys: &[u32],
    (lo, span): Want,
    out: &mut Vec<PointId>,
) {
    for i in run {
        if scan.within(scan.xs[i], scan.ys[i]) && keys[i].wrapping_sub(lo) <= span {
            out.push(i as PointId);
        }
    }
}

/// Writes the id of every point of one leaf's run (the first is `first`)
/// to `out` and keeps the hits: the cursor advances by the predicate, so
/// there is no data-dependent branch. Returns the hits.
#[inline(always)]
fn compact_run(scan: &Scan, xs: &[f64], ys: &[f64], first: usize, out: &mut [PointId]) -> usize {
    let mut kept = 0;
    for (i, (&x, &y)) in xs.iter().zip(ys).enumerate() {
        out[kept] = (first + i) as PointId;
        kept += usize::from(scan.within(x, y));
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    const FRESH: Want = (1, 0);
    /// `u32::MAX − 1 ..= u32::MAX`: a key of 0 wraps to just past it.
    const UNCLAIMED: Want = (u32::MAX - 1, 1);

    /// A lattice around the origin, so many points lie at exactly the
    /// radii the cases search, then duplicates, signed zeros and NaNs.
    fn points() -> Vec<Point2> {
        let mut points = Vec::new();
        for i in -3..=3 {
            for j in -3..=3 {
                points.push(Point2::new(f64::from(i) * 0.5, f64::from(j) * 0.5));
            }
        }
        points.extend([
            Point2::new(0.0, 0.0),
            Point2::new(0.0, 0.0),
            Point2::new(-0.0, -0.0),
            Point2::new(-0.0, 0.0),
            Point2::new(1.5, 2.0),
            Point2::new(1.5, 2.0),
            Point2::new(f64::NAN, 0.0),
            Point2::new(0.0, f64::NAN),
            Point2::new(f64::NAN, f64::NAN),
            Point2::new(-1.5, -2.0),
            Point2::new(1.0, 0.5),
        ]);
        points
    }

    /// Keys cycling through the wanted ranges' edges and just past them.
    fn key(i: usize) -> u32 {
        [0, 1, 2, u32::MAX - 2, u32::MAX - 1, u32::MAX][i % 6]
    }

    /// What a level's three kernels return for one search.
    type Answers = (usize, Vec<(usize, Vec<PointId>)>, Vec<PointId>);

    fn run(level: Level, scan: &Scan, row: &[u32], keys: &[u32]) -> Answers {
        let count = level.count(scan, row);
        let keyed = [FRESH, UNCLAIMED]
            .map(|want| {
                let mut out = vec![7];
                let count = level.count_keyed(scan, row, keys, want, &mut out);
                (count, out)
            })
            .to_vec();
        let mut all = vec![7];
        level.collect(scan, row, &mut all);
        (count, keyed, all)
    }

    #[test]
    fn every_level_scans_as_the_baseline() {
        let points = points();
        let xs: Vec<f64> = points.iter().map(|p| p.x).collect();
        let ys: Vec<f64> = points.iter().map(|p| p.y).collect();
        let keys: Vec<u32> = (0..points.len()).map(key).collect();
        let levels = Level::supported();
        let centers = [
            Point2::new(0.0, 0.0),
            Point2::new(-0.0, 0.0),
            Point2::new(0.5, -1.0),
            Point2::new(1.5, 2.0),
        ];
        let radii = [0.0, 0.5, 1.0, 1.25f64.sqrt(), 2.5, 5.0];
        let mut searches = 0;
        // Leaf lengths 1 to 17 (two 8-lane vectors and one), each with a
        // partial last leaf of every length the point count leaves.
        for r in 1..=17 {
            let leaves = points.len().div_ceil(r);
            let everything = Mbb::new(
                Point2::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
                Point2::new(f64::INFINITY, f64::INFINITY),
            );
            let tight: Vec<Mbb> = points
                .chunks(r)
                .map(|run| Mbb::from_points(run).unwrap())
                .collect();
            // Walk order (descending), and every leaf twice.
            let row: Vec<u32> = (0..leaves as u32).rev().chain(0..leaves as u32).collect();
            for boxes in [vec![everything; leaves], tight] {
                for center in centers {
                    for eps in radii {
                        let scan = Scan {
                            xs: &xs,
                            ys: &ys,
                            boxes: &boxes,
                            r,
                            query: Mbb::around_point(center, eps),
                            center,
                            eps_sq: eps * eps,
                        };
                        let base = run(Level::BASE, &scan, &row, &keys);
                        for &level in &levels[1..] {
                            let got = run(level, &scan, &row, &keys);
                            assert_eq!(got, base, "{level:?}, r={r}, {center:?}, ε={eps}");
                        }
                        check_baseline(&scan, &row, &keys, &base);
                        searches += 1;
                    }
                }
            }
        }
        assert_eq!(searches, 17 * 2 * 4 * 6);
    }

    /// The baseline against the predicate applied point by point.
    fn check_baseline(scan: &Scan, row: &[u32], keys: &[u32], got: &Answers) {
        let hits: Vec<PointId> = row
            .iter()
            .filter_map(|&leaf| scan.reached(leaf))
            .flatten()
            .filter(|&i| {
                let (dx, dy) = (scan.xs[i] - scan.center.x, scan.ys[i] - scan.center.y);
                dx * dx + dy * dy <= scan.eps_sq
            })
            .map(|i| i as PointId)
            .collect();
        let (count, keyed, all) = got;
        assert_eq!(*count, hits.len());
        assert_eq!(all[1..], hits[..]);
        for ((lo, span), (count, out)) in [FRESH, UNCLAIMED].into_iter().zip(keyed) {
            assert_eq!(*count, hits.len());
            let wanted: Vec<PointId> = hits
                .iter()
                .copied()
                .filter(|&i| (lo..=lo + span).contains(&keys[i as usize]))
                .collect();
            assert_eq!(out[1..], wanted[..]);
        }
    }
}
