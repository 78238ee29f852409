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
//!   again, by [`push_wanted`], to push those hits. That push pass
//!   builds a `u64` mask of the wanted hits per chunk of up to 64 points,
//!   with no branch per point, then pushes the id of each set bit in
//!   ascending order (`trailing_zeros`, then clear the lowest bit).
//! - [`Level::collect`]: the materialising compaction of
//!   `epsilon_neighbors`, which writes every candidate's id and advances
//!   its cursor by the predicate. Its stores keep the compaction
//!   scalar at every level; the row loop around it is compiled per
//!   level like the others.
//!
//! The two counting kernels take a [`Skip`]: once the count reaches
//! `skip.need`, the count stops, and the keyed pass passes over every
//! leaf `skip.live` marks as holding no wanted key. From-scratch DBSCAN
//! uses it with `need = minpts`, where the core test is then decided;
//! every other caller passes [`Skip::NONE`] and gets exact counts.
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

use crate::traits::Skip;

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
    /// What the scan may leave out once its count reaches `skip.need`.
    pub(crate) skip: Skip<'a>,
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

    /// Whether a scan whose count is `count` may pass over `leaf`: the
    /// count has reached `need` and no point of `leaf` is wanted.
    #[inline(always)]
    fn settled(&self, count: usize, leaf: u32) -> bool {
        count >= self.skip.need && self.skip.live.get(leaf as usize) == Some(&0)
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

    /// `count` plus the hits among the points of the leaves in `row` that
    /// meet the query, leaf by leaf until the sum reaches `skip.need`.
    #[inline]
    pub(crate) fn count(self, scan: &Scan, row: &[u32], count: usize) -> usize {
        match self.0 {
            Isa::Base => base::count(scan, row, count),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: a `Level` is `Avx2` only where avx2 was detected.
            Isa::Avx2 => unsafe { avx2::count(scan, row, count) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: a `Level` is `Avx512` only where `has_avx512` found
            // avx512f, avx512vl, avx512bw and avx512dq.
            Isa::Avx512 => unsafe { avx512::count(scan, row, count) },
        }
    }

    /// [`Level::count`], appending to `out` the hits whose key is wanted,
    /// leaf by leaf in `row`'s order and in tree order within a leaf. Once
    /// the sum reaches `skip.need` it passes over the leaves `skip.live`
    /// marks as holding no wanted key, and scans the rest.
    #[inline]
    pub(crate) fn count_keyed(
        self,
        scan: &Scan,
        row: &[u32],
        count: usize,
        keys: &[u32],
        want: Want,
        out: &mut Vec<PointId>,
    ) -> usize {
        match self.0 {
            Isa::Base => base::count_keyed(scan, row, count, keys, want, out),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: a `Level` is `Avx2` only where avx2 was detected.
            Isa::Avx2 => unsafe { avx2::count_keyed(scan, row, count, keys, want, out) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: a `Level` is `Avx512` only where `has_avx512` found
            // avx512f, avx512vl, avx512bw and avx512dq.
            Isa::Avx512 => unsafe { avx512::count_keyed(scan, row, count, keys, want, out) },
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
            pub(super) fn count(scan: &Scan, row: &[u32], count: usize) -> usize {
                super::count(scan, row, count)
            }

            #[inline(never)]
            $(#[target_feature(enable = $features)])?
            pub(super) fn count_keyed(
                scan: &Scan,
                row: &[u32],
                count: usize,
                keys: &[u32],
                want: Want,
                out: &mut Vec<PointId>,
            ) -> usize {
                super::count_keyed(scan, row, count, keys, want, out)
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
fn count(scan: &Scan, row: &[u32], mut count: usize) -> usize {
    for &leaf in row {
        if count >= scan.skip.need {
            break;
        }
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
    mut count: usize,
    keys: &[u32],
    want: Want,
    out: &mut Vec<PointId>,
) -> usize {
    for &leaf in row {
        if scan.settled(count, leaf) {
            continue;
        }
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

/// The second pass over a leaf with a wanted hit: pushes each such hit,
/// in tree order. Per chunk of up to 64 points it first builds a mask of
/// the wanted hits, with no branch per point, then pushes the id of each
/// set bit, lowest first. Inlined into the row loop, so the mask is
/// built at the loop's vector width.
#[inline(always)]
fn push_wanted(
    scan: &Scan,
    run: Range<usize>,
    keys: &[u32],
    (lo, span): Want,
    out: &mut Vec<PointId>,
) {
    let (xs, ys, keys) = (
        &scan.xs[run.clone()],
        &scan.ys[run.clone()],
        &keys[run.clone()],
    );
    for first in (0..run.len()).step_by(64) {
        let end = (first + 64).min(run.len());
        let mut mask = 0u64;
        for (bit, ((&x, &y), &k)) in xs[first..end]
            .iter()
            .zip(&ys[first..end])
            .zip(&keys[first..end])
            .enumerate()
        {
            let wanted = scan.within(x, y) & (k.wrapping_sub(lo) <= span);
            mask |= u64::from(wanted) << bit;
        }
        let base = run.start + first;
        while mask != 0 {
            out.push((base + mask.trailing_zeros() as usize) as PointId);
            mask &= mask - 1;
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
    /// Every key, so every hit is pushed.
    const EVERY: Want = (0, u32::MAX);
    const WANTS: [Want; 3] = [FRESH, UNCLAIMED, EVERY];

    /// A lattice around the origin, so many points lie at exactly the
    /// radii the cases search, then duplicates, signed zeros and NaNs;
    /// five times over and one point more, so that leaves of 63–130
    /// points come out whole and the last one partial.
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
        let mut points = points.repeat(5);
        points.push(Point2::new(0.25, -0.75));
        points
    }

    /// Keys cycling through the wanted ranges' edges and just past them.
    fn key(i: usize) -> u32 {
        [0, 1, 2, u32::MAX - 2, u32::MAX - 1, u32::MAX][i % 6]
    }

    /// What a level's kernels return for one search: the count, the
    /// count and kept ids of each of [`WANTS`], and every hit.
    type Answers = (usize, Vec<(usize, Vec<PointId>)>, Vec<PointId>);

    /// One search at `level`, whose counting kernels may stop or skip
    /// leaves once the count reaches `need`; each keyed search's `live`
    /// is derived from the keys its want selects.
    fn run(level: Level, scan: &Scan, row: &[u32], keys: &[u32], need: usize) -> Answers {
        let live = Skip { need, live: &[] };
        let count = level.count(
            &Scan {
                skip: live,
                ..*scan
            },
            row,
            0,
        );
        let keyed = WANTS
            .map(|(lo, span)| {
                let live: Vec<u32> = keys
                    .chunks(scan.r)
                    .map(|leaf| leaf.iter().filter(|k| k.wrapping_sub(lo) <= span).count() as u32)
                    .collect();
                let scan = Scan {
                    skip: Skip { need, live: &live },
                    ..*scan
                };
                let mut out = vec![7];
                let count = level.count_keyed(&scan, row, 0, keys, (lo, span), &mut out);
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
        let (mut searches, mut chunk_ends) = (0, 0);
        // Leaf lengths 1 to 17 (two 8-lane vectors and one), and around
        // one and two of the rescan's 64-point chunks, each with a partial
        // last leaf.
        let sizes = [63, 64, 65, 127, 128, 129, 130];
        for r in (1..=17).chain(sizes) {
            if r > 17 {
                // The first and last lane of each chunk hold a point that
                // is a hit at ε = 5 around the origin, so `EVERY` pushes
                // it from the rescan there.
                for leaf in points.chunks(r) {
                    for chunk in leaf.chunks(64) {
                        for p in [chunk[0], chunk[chunk.len() - 1]] {
                            assert!(p.dist_sq(&Point2::new(0.0, 0.0)) <= 25.0, "r={r}");
                            chunk_ends += 1;
                        }
                    }
                }
            }
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
                            skip: Skip::NONE,
                        };
                        for need in [usize::MAX, 3] {
                            let base = run(Level::BASE, &scan, &row, &keys, need);
                            for &level in &levels[1..] {
                                let got = run(level, &scan, &row, &keys, need);
                                assert_eq!(
                                    got, base,
                                    "{level:?}, r={r}, {center:?}, ε={eps}, need={need}"
                                );
                            }
                            check_baseline(&scan, &row, &keys, need, &base);
                        }
                        searches += 1;
                    }
                }
            }
        }
        assert_eq!(searches, 24 * 2 * 4 * 6);
        assert_eq!(chunk_ends, 2 * (5 + 5 + 9 + 5 + 5 + 7 + 7));
    }

    /// The baseline against the predicate applied point by point: every
    /// kept id, and the exact count unless it reached `need`, where the
    /// scan may stop or skip.
    fn check_baseline(scan: &Scan, row: &[u32], keys: &[u32], need: usize, got: &Answers) {
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
        let counted = |count: usize| {
            if hits.len() < need {
                count == hits.len()
            } else {
                (need..=hits.len()).contains(&count)
            }
        };
        let (count, keyed, all) = got;
        assert!(counted(*count), "{count} of {} hits", hits.len());
        assert_eq!(all[1..], hits[..]);
        for ((lo, span), (count, out)) in WANTS.into_iter().zip(keyed) {
            assert!(counted(*count), "{count} of {} hits", hits.len());
            let wanted: Vec<PointId> = hits
                .iter()
                .copied()
                .filter(|&i| (lo..=lo + span).contains(&keys[i as usize]))
                .collect();
            assert_eq!(out[1..], wanted[..]);
        }
    }
}
