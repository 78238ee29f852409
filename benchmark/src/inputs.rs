//! Everything the runner generates from `--seed`.
//!
//! The catalog datasets are fixed by name (`vbp-data` seeds them itself,
//! as `vbp serve --datasets` would); the seed drives what a caller
//! varies: which points a live feed appends, which fresh variants are
//! asked for, which requests each client sends, which points the probes
//! query and which variants the oracle re-derives. The product only ever
//! sees these generated inputs.

use variantdbscan::{Variant, VariantSet};
use vbp_data::{Pcg32, SW_FULL_SIZES};
use vbp_geom::{Point2, PointId};

/// One independent stream per purpose, so adding a consumer never shifts
/// another's numbers.
#[derive(Clone, Copy)]
pub enum Stream {
    Oracle = 1,
    Queries = 2,
    Batches = 3,
    Jitter = 4,
    Requests = 5,
    Spans = 6,
}

pub fn rng(seed: u64, stream: Stream, lane: u64) -> Pcg32 {
    Pcg32::new(seed, ((stream as u64) << 32) | lane)
}

/// `sweep_sw`: the paper's Table IV grid "V1" (|V| = 57) on an SW1 map
/// generated below full size. ε is scaled by (full/actual)^¼, the rule
/// `crates/bench/src/scenarios.rs` documents (copied, not imported: the
/// benchmark must not depend on `vbp-bench`).
pub fn sweep_variants(actual_points: usize) -> VariantSet {
    let full = SW_FULL_SIZES[0];
    let m = if actual_points >= full || actual_points == 0 {
        1.0
    } else {
        (full as f64 / actual_points as f64).powf(0.25)
    };
    let eps: Vec<f64> = [0.2, 0.3, 0.4].iter().map(|e| e * m).collect();
    let minpts: Vec<usize> = (10..=100).step_by(5).collect();
    VariantSet::cartesian(&eps, &minpts)
}

/// `scratch_cf`: ε and minpts rise together, so no variant satisfies the
/// inclusion rule against another and all four run from scratch.
pub fn scratch_variants() -> VariantSet {
    VariantSet::new(vec![
        Variant::new(0.35, 4),
        Variant::new(0.40, 6),
        Variant::new(0.45, 8),
        Variant::new(0.50, 10),
    ])
}

/// `serve_hot`: the eight variants asked of each dataset, around its
/// k-dist knee.
pub fn hot_grid(knee: f64) -> Vec<Variant> {
    let mut grid = Vec::with_capacity(8);
    for scale in [0.9, 1.0, 1.1, 1.3] {
        for minpts in [4, 8] {
            grid.push(Variant::new(knee * scale, minpts));
        }
    }
    grid
}

/// Every `LABELS_EVERY`-th request of a `serve_hot` client asks for the
/// label vector as well.
pub const LABELS_EVERY: u64 = 97;

/// One request of a `serve_hot` client.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub struct HotRequest {
    /// Index into the (dataset, variant) pair table.
    pub pair: usize,
    pub want_labels: bool,
}

/// The request sequence of one `serve_hot` client: each request asks for
/// one of the `pairs` warmed pairs, chosen uniformly.
pub struct RequestStream {
    rng: Pcg32,
    pairs: u32,
    sent: u64,
}

impl RequestStream {
    pub fn new(seed: u64, client: u64, pairs: usize) -> Self {
        assert!(pairs > 0, "a client needs pairs to ask for");
        Self {
            rng: rng(seed, Stream::Requests, client),
            pairs: pairs as u32,
            sent: 0,
        }
    }

    pub fn next_request(&mut self) -> HotRequest {
        self.sent += 1;
        HotRequest {
            pair: self.rng.below(self.pairs) as usize,
            want_labels: self.sent.is_multiple_of(LABELS_EVERY),
        }
    }
}

/// Points appended per `serve_stream` round.
pub const BATCH_POINTS: usize = 8;

/// One round in `IN_BOX_EVERY` appends inside the original data; the
/// others append a clump on the frontier.
pub const IN_BOX_EVERY: usize = 32;

/// What `serve_stream` feeds the daemon, one entry per round.
pub struct StreamInputs {
    pub batches: Vec<Vec<Point2>>,
    pub fresh: Vec<Variant>,
}

/// Bounding box of a point set.
fn bounding_box(points: &[Point2]) -> (Point2, Point2) {
    let (mut lo, mut hi) = (points[0], points[0]);
    for p in points {
        lo = Point2::new(lo.x.min(p.x), lo.y.min(p.y));
        hi = Point2::new(hi.x.max(p.x), hi.y.max(p.y));
    }
    (lo, hi)
}

/// The `serve_stream` feed over the daemon's original points `base`.
///
/// An appended point with an older point inside a cached variant's ε
/// makes the daemon drop that cache entry; otherwise the entry is
/// repaired in place. Seven rounds in eight append a tight clump on a
/// lattice *beside* the data, each clump farther than the widest ε from
/// everything earlier (new structure at the edge of the map: every
/// entry is repaired, the WATCH delta reports a new cluster). Every
/// eighth round appends next to eight seeded points of `base`, nearer
/// than the narrowest ε (clusters absorb points: every entry is
/// dropped). Uniform points in the box mostly fall on empty map, and
/// which entries then survived, and with them what every later append
/// and submit costs, would be the seed's doing.
///
/// Round 0 asks for the narrowest ε with the larger minpts: it is the
/// variant every round asks again, so it must not differ from seed to
/// seed either, and every other fresh variant can reuse its clusters.
/// After a drop the next fresh variant and this one are clustered from
/// scratch and the seven that follow by reuse; with a seeded round 0 the
/// from-scratch share, and with it the median, was the seed's doing.
pub fn stream_inputs(seed: u64, rounds: usize, base: &[Point2], knee: f64) -> StreamInputs {
    let (lo, hi) = bounding_box(base);
    let mut points = rng(seed, Stream::Batches, 0);
    let mut jitter = rng(seed, Stream::Jitter, 0);
    // Widest fresh ε is 1.15 knee; clumps have radius knee/4, so centres
    // three knees apart leave 2.5 knees between points of two clumps.
    let pitch = 3.0 * knee;
    let rows = (((hi.y - lo.y) / pitch).floor() as usize).max(1);
    let mut clumps = 0usize;
    let mut batches = Vec::with_capacity(rounds);
    let mut fresh = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let in_box = round % IN_BOX_EVERY == IN_BOX_EVERY - 1;
        let (centre, radius) = if in_box {
            (None, 0.1 * knee)
        } else {
            let cx = hi.x + pitch * (1 + clumps / rows) as f64;
            let cy = lo.y + pitch * (clumps % rows) as f64;
            clumps += 1;
            (Some(Point2::new(cx, cy)), 0.25 * knee)
        };
        let batch = (0..BATCH_POINTS)
            .map(|_| {
                let c = centre.unwrap_or_else(|| base[points.below(base.len() as u32) as usize]);
                let r = radius * points.next_f64().sqrt();
                let a = points.uniform(0.0, std::f64::consts::TAU);
                Point2::new(c.x + r * a.cos(), c.y + r * a.sin())
            })
            .collect();
        batches.push(batch);
        let u = jitter.next_f64();
        let eps = knee * (0.85 + 0.3 * if round == 0 { 0.0 } else { u });
        fresh.push(Variant::new(eps, if round % 2 == 0 { 8 } else { 4 }));
    }
    StreamInputs { batches, fresh }
}

/// `count` seeded point ids below `n` (with repetition) for the ε-query
/// probe.
pub fn query_ids(seed: u64, n: usize, count: usize) -> Vec<PointId> {
    let mut r = rng(seed, Stream::Queries, 0);
    (0..count).map(|_| r.below(n as u32)).collect()
}

/// `k` distinct seeded indices below `len` (all of them when `len <= k`),
/// ascending: which variants the oracle re-derives.
pub fn oracle_picks(seed: u64, len: usize, k: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..len).collect();
    rng(seed, Stream::Oracle, 0).shuffle(&mut all);
    all.truncate(k);
    all.sort_unstable();
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(inputs: &StreamInputs) -> Vec<u64> {
        let mut out = Vec::new();
        for b in &inputs.batches {
            for p in b {
                out.push(p.x.to_bits());
                out.push(p.y.to_bits());
            }
        }
        for v in &inputs.fresh {
            out.push(v.eps.to_bits());
            out.push(v.minpts as u64);
        }
        out
    }

    /// A 26 × 21 grid of points two units apart: [0, 50] × [0, 40].
    fn grid() -> Vec<Point2> {
        (0..26 * 21)
            .map(|i| Point2::new((i % 26) as f64 * 2.0, (i / 26) as f64 * 2.0))
            .collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let base = grid();
        let a = stream_inputs(7, 64, &base, 0.8);
        let b = stream_inputs(7, 64, &base, 0.8);
        let c = stream_inputs(8, 64, &base, 0.8);
        assert_eq!(bits(&a), bits(&b));
        assert_ne!(bits(&a), bits(&c));
        assert_eq!(query_ids(7, 1000, 32), query_ids(7, 1000, 32));
        assert_ne!(query_ids(7, 1000, 32), query_ids(8, 1000, 32));
        assert_eq!(oracle_picks(7, 57, 3), oracle_picks(7, 57, 3));
        let stream = |seed, client| {
            let mut s = RequestStream::new(seed, client, 32);
            (0..800).map(|_| s.next_request()).collect::<Vec<_>>()
        };
        let (xs, ys, zs) = (stream(7, 0), stream(7, 0), stream(7, 1));
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
        assert_eq!(xs.iter().filter(|r| r.want_labels).count(), 8);
        let asked: std::collections::BTreeSet<usize> = xs.iter().map(|r| r.pair).collect();
        assert_eq!(asked.len(), 32, "800 uniform draws reach all 32 pairs");
    }

    #[test]
    fn frontier_clumps_touch_nothing_older_and_box_batches_touch_the_data() {
        let base = grid();
        let knee = 0.8;
        let s = stream_inputs(3, 80, &base, knee);
        let (narrowest, widest) = (0.85 * knee, 1.15 * knee);
        let mut older = base.clone();
        for (round, batch) in s.batches.iter().enumerate() {
            assert_eq!(batch.len(), BATCH_POINTS);
            let touches = |p: &Point2, eps: f64| older.iter().any(|q| p.dist_sq(q) <= eps * eps);
            if round % IN_BOX_EVERY == IN_BOX_EVERY - 1 {
                assert!(batch.iter().all(|p| touches(p, narrowest)));
            } else {
                assert!(batch
                    .iter()
                    .all(|p| p.x > 50.0 + widest && !touches(p, widest)));
            }
            older.extend_from_slice(batch);
        }
        assert!(s
            .fresh
            .iter()
            .all(|v| v.eps >= narrowest && v.eps <= widest));
        assert_eq!(s.fresh[0], Variant::new(narrowest, 8));
        assert_eq!(stream_inputs(4, 1, &base, knee).fresh[0], s.fresh[0]);
        assert!(s
            .fresh
            .iter()
            .all(|v| *v == s.fresh[0] || v.can_reuse(&s.fresh[0])));
    }

    #[test]
    fn grids_have_the_documented_shapes() {
        assert_eq!(sweep_variants(100_000).len(), 57);
        assert_eq!(sweep_variants(SW_FULL_SIZES[0]).get(0).eps, 0.2);
        let v = scratch_variants();
        for a in v.iter() {
            for b in v.iter() {
                assert!(a == b || !a.can_reuse(&b), "{a} can reuse {b}");
            }
        }
        assert_eq!(hot_grid(1.0).len(), 8);
    }
}
