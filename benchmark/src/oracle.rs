//! The output oracle: is a clustering the one DBSCAN defines?
//!
//! DBSCAN's labels are unique up to cluster numbering and the owner of a
//! border point, so two correct runs are compared structurally (the
//! criterion of `crates/core/tests/metamorphic_reuse.rs`): the noise
//! sets are equal, the cluster counts are equal, and over core points
//! the map between cluster ids is a bijection. The reference is a fresh
//! `vbp_dbscan::dbscan` over a prepared index of the same points; core
//! points come from ε-counts on that index. All of it runs outside the
//! timed region.

use std::collections::{BTreeMap, BTreeSet};

use variantdbscan::{PreparedIndex, Variant};
use vbp_dbscan::{dbscan, MAX_CLUSTER_ID, NOISE};
use vbp_geom::PointId;
use vbp_rtree::SpatialIndex;

/// A from-scratch clustering of one variant, in caller point order.
pub struct Reference {
    pub labels: Vec<u32>,
    /// Caller ids of the core points.
    pub cores: Vec<PointId>,
    pub clusters: usize,
    pub noise: usize,
}

/// Clusters `variant` from scratch over `index`.
pub fn reference(index: &PreparedIndex, variant: Variant) -> Reference {
    let tree = index.t_low();
    let result = dbscan(tree, variant.params());
    let labels = index.labels_in_caller_order(&result);
    let permutation = index.permutation();
    let mut scratch = Vec::new();
    let cores = tree
        .points()
        .iter()
        .enumerate()
        .filter(|(_, p)| tree.epsilon_count(**p, variant.eps, &mut scratch) >= variant.minpts)
        .map(|(tree_id, _)| permutation[tree_id])
        .collect();
    Reference {
        labels,
        cores,
        clusters: result.num_clusters(),
        noise: result.noise_count(),
    }
}

/// Checks `candidate` (caller-order raw labels) against the reference.
pub fn isomorphic(reference: &Reference, candidate: &[u32]) -> Result<(), String> {
    let expected = &reference.labels;
    if expected.len() != candidate.len() {
        return Err(format!(
            "label vectors cover {} and {} points",
            expected.len(),
            candidate.len()
        ));
    }
    for (p, (&a, &b)) in expected.iter().zip(candidate).enumerate() {
        if (a == NOISE) != (b == NOISE) {
            return Err(format!("noise status of point {p} differs"));
        }
        if a > MAX_CLUSTER_ID && a != NOISE || b > MAX_CLUSTER_ID && b != NOISE {
            return Err(format!("point {p} left unclassified"));
        }
    }
    let count = |labels: &[u32]| {
        labels
            .iter()
            .filter(|&&l| l <= MAX_CLUSTER_ID)
            .collect::<BTreeSet<_>>()
            .len()
    };
    let (ca, cb) = (count(expected), count(candidate));
    if ca != cb {
        return Err(format!("cluster counts differ: {ca} and {cb}"));
    }
    let mut forward: BTreeMap<u32, u32> = BTreeMap::new();
    let mut images: BTreeSet<u32> = BTreeSet::new();
    for &p in &reference.cores {
        let (a, b) = (expected[p as usize], candidate[p as usize]);
        if a > MAX_CLUSTER_ID || b > MAX_CLUSTER_ID {
            return Err(format!("core point {p} is not in a cluster"));
        }
        match forward.get(&a) {
            Some(&mapped) if mapped != b => {
                return Err(format!("reference cluster {a} is split at core point {p}"));
            }
            Some(_) => {}
            None => {
                if !images.insert(b) {
                    return Err(format!("two reference clusters merge into {b} at core {p}"));
                }
                forward.insert(a, b);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use variantdbscan::{Engine, EngineConfig};
    use vbp_geom::Point2;

    fn two_blobs() -> Vec<Point2> {
        let mut pts = Vec::new();
        for base in [0.0, 10.0] {
            for i in 0..25 {
                pts.push(Point2::new(
                    base + (i % 5) as f64 * 0.2,
                    (i / 5) as f64 * 0.2,
                ));
            }
        }
        pts.push(Point2::new(50.0, 50.0));
        pts
    }

    #[test]
    fn accepts_a_renumbering_and_rejects_a_merge_a_split_and_a_noise_flip() {
        let points = two_blobs();
        let engine = Engine::new(EngineConfig::default().with_threads(1).with_r(8));
        let index = engine.prepare(&points, None).unwrap();
        let r = reference(&index, Variant::new(0.3, 4));
        assert_eq!((r.clusters, r.noise), (2, 1));
        assert!(isomorphic(&r, &r.labels).is_ok());

        let swapped: Vec<u32> = r
            .labels
            .iter()
            .map(|&l| if l <= MAX_CLUSTER_ID { 1 - l } else { l })
            .collect();
        assert!(isomorphic(&r, &swapped).is_ok());

        let merged: Vec<u32> = r
            .labels
            .iter()
            .map(|&l| if l <= MAX_CLUSTER_ID { 0 } else { l })
            .collect();
        assert!(isomorphic(&r, &merged).is_err());

        let mut split = r.labels.clone();
        split[0] = 2;
        assert!(isomorphic(&r, &split).is_err());

        let mut flipped = r.labels.clone();
        flipped[50] = 0;
        assert!(isomorphic(&r, &flipped).is_err());

        assert!(isomorphic(&r, &r.labels[1..]).is_err());
    }
}
