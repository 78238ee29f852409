//! A classic dynamic R-tree (Guttman 1984) with quadratic split.
//!
//! The paper cites Guttman's R-tree as the index DBSCAN historically
//! assumed; VariantDBSCAN replaces it with the static packed tree because
//! the point database never changes during a run. This implementation
//! exists as the dynamically-updatable option for streaming scenarios: it
//! is the index under `vbp_dbscan`'s `IncrementalDbscan`.
//!
//! Nodes live in an arena (`Vec<Node>`); children are arena ids, which
//! keeps the structure `Send + Sync` without `unsafe` or `Rc`.

use vbp_geom::{Mbb, Point2, PointId};

use crate::stats::TreeStats;
use crate::traits::SpatialIndex;

/// Maximum entries per node before a split (Guttman's `M`).
const MAX_ENTRIES: usize = 16;
/// Minimum entries after a split (Guttman's `m ≤ M/2`).
const MIN_ENTRIES: usize = MAX_ENTRIES / 2;

#[derive(Clone, Debug)]
struct Node {
    leaf: bool,
    /// Entry MBBs; `mbbs[i]` bounds `entries[i]`.
    mbbs: Vec<Mbb>,
    /// For a leaf: point ids. For an internal node: child node ids.
    entries: Vec<u32>,
}

impl Node {
    fn new(leaf: bool) -> Self {
        Self {
            leaf,
            mbbs: Vec::with_capacity(MAX_ENTRIES + 1),
            entries: Vec::with_capacity(MAX_ENTRIES + 1),
        }
    }

    fn mbb(&self) -> Mbb {
        let mut m = Mbb::empty();
        for child in &self.mbbs {
            m = m.union(child);
        }
        m
    }
}

/// An insertion-capable R-tree over 2-D points.
#[derive(Clone, Debug)]
pub struct DynamicRTree {
    points: Vec<Point2>,
    nodes: Vec<Node>,
    root: usize,
}

impl Default for DynamicRTree {
    fn default() -> Self {
        Self::new()
    }
}

impl DynamicRTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self {
            points: Vec::new(),
            nodes: vec![Node::new(true)],
            root: 0,
        }
    }

    /// Builds a tree by inserting every point in order.
    pub fn from_points(points: &[Point2]) -> Self {
        let mut t = Self::new();
        for &p in points {
            t.insert(p);
        }
        t
    }

    /// Inserts a point, returning its id (insertion order).
    pub fn insert(&mut self, p: Point2) -> PointId {
        assert!(
            self.points.len() < PointId::MAX as usize,
            "dataset exceeds PointId capacity"
        );
        let pid = self.points.len() as PointId;
        self.points.push(p);
        if let Some(sibling) = self.insert_rec(self.root, Mbb::from_point(p), pid) {
            // Root split: grow the tree by one level.
            let old_root = self.root;
            let mut new_root = Node::new(false);
            new_root.mbbs.push(self.nodes[old_root].mbb());
            new_root.entries.push(old_root as u32);
            new_root.mbbs.push(self.nodes[sibling].mbb());
            new_root.entries.push(sibling as u32);
            self.root = self.nodes.len();
            self.nodes.push(new_root);
        }
        pid
    }

    /// Recursive insert; returns the arena id of a new sibling if `node`
    /// split.
    fn insert_rec(&mut self, node: usize, mbb: Mbb, pid: PointId) -> Option<usize> {
        if self.nodes[node].leaf {
            self.nodes[node].mbbs.push(mbb);
            self.nodes[node].entries.push(pid);
        } else {
            // ChooseSubtree: least enlargement, ties by smallest area.
            let best = {
                let n = &self.nodes[node];
                let mut best = 0usize;
                let mut best_enl = f64::INFINITY;
                let mut best_area = f64::INFINITY;
                for (i, child_mbb) in n.mbbs.iter().enumerate() {
                    let enl = child_mbb.enlargement(&mbb);
                    let area = child_mbb.area();
                    if enl < best_enl || (enl == best_enl && area < best_area) {
                        best = i;
                        best_enl = enl;
                        best_area = area;
                    }
                }
                best
            };
            let child_id = self.nodes[node].entries[best] as usize;
            let split = self.insert_rec(child_id, mbb, pid);
            // Refresh the chosen child's MBB (it grew or split).
            self.nodes[node].mbbs[best] = self.nodes[child_id].mbb();
            if let Some(sibling) = split {
                let smbb = self.nodes[sibling].mbb();
                self.nodes[node].mbbs.push(smbb);
                self.nodes[node].entries.push(sibling as u32);
            }
        }
        if self.nodes[node].entries.len() > MAX_ENTRIES {
            Some(self.split(node))
        } else {
            None
        }
    }

    /// Guttman's quadratic split. `node` keeps one group; the other group
    /// moves to a freshly allocated sibling whose arena id is returned.
    fn split(&mut self, node: usize) -> usize {
        let leaf = self.nodes[node].leaf;
        let mbbs = std::mem::take(&mut self.nodes[node].mbbs);
        let entries = std::mem::take(&mut self.nodes[node].entries);
        let n = entries.len();

        // PickSeeds: the pair wasting the most area if grouped together.
        let (mut seed_a, mut seed_b, mut worst) = (0usize, 1usize, f64::NEG_INFINITY);
        for i in 0..n {
            for j in (i + 1)..n {
                let waste = mbbs[i].union(&mbbs[j]).area() - mbbs[i].area() - mbbs[j].area();
                if waste > worst {
                    worst = waste;
                    seed_a = i;
                    seed_b = j;
                }
            }
        }

        let mut group_a: Vec<usize> = vec![seed_a];
        let mut group_b: Vec<usize> = vec![seed_b];
        let mut mbb_a = mbbs[seed_a];
        let mut mbb_b = mbbs[seed_b];
        let mut remaining: Vec<usize> = (0..n).filter(|&i| i != seed_a && i != seed_b).collect();

        while !remaining.is_empty() {
            // If one group must take everything left to reach min fill, do so.
            if group_a.len() + remaining.len() == MIN_ENTRIES {
                for i in remaining.drain(..) {
                    mbb_a = mbb_a.union(&mbbs[i]);
                    group_a.push(i);
                }
                break;
            }
            if group_b.len() + remaining.len() == MIN_ENTRIES {
                for i in remaining.drain(..) {
                    mbb_b = mbb_b.union(&mbbs[i]);
                    group_b.push(i);
                }
                break;
            }
            // PickNext: entry with the largest preference difference.
            let (mut pick, mut pick_pos, mut best_diff) = (remaining[0], 0usize, -1.0f64);
            for (pos, &i) in remaining.iter().enumerate() {
                let da = mbb_a.enlargement(&mbbs[i]);
                let db = mbb_b.enlargement(&mbbs[i]);
                let diff = (da - db).abs();
                if diff > best_diff {
                    best_diff = diff;
                    pick = i;
                    pick_pos = pos;
                }
            }
            remaining.swap_remove(pick_pos);
            let da = mbb_a.enlargement(&mbbs[pick]);
            let db = mbb_b.enlargement(&mbbs[pick]);
            let to_a = da < db
                || (da == db && mbb_a.area() < mbb_b.area())
                || (da == db && mbb_a.area() == mbb_b.area() && group_a.len() <= group_b.len());
            if to_a {
                mbb_a = mbb_a.union(&mbbs[pick]);
                group_a.push(pick);
            } else {
                mbb_b = mbb_b.union(&mbbs[pick]);
                group_b.push(pick);
            }
        }

        // Write group A back into `node`, group B into the new sibling.
        for &i in &group_a {
            self.nodes[node].mbbs.push(mbbs[i]);
            self.nodes[node].entries.push(entries[i]);
        }
        let mut sibling = Node::new(leaf);
        for &i in &group_b {
            sibling.mbbs.push(mbbs[i]);
            sibling.entries.push(entries[i]);
        }
        let sid = self.nodes.len();
        self.nodes.push(sibling);
        sid
    }

    /// Tree depth (1 = root is a leaf).
    pub fn depth(&self) -> usize {
        let mut d = 1;
        let mut node = self.root;
        while !self.nodes[node].leaf {
            node = self.nodes[node].entries[0] as usize;
            d += 1;
        }
        d
    }

    /// Structural statistics.
    pub fn stats(&self) -> TreeStats {
        let mut leaf_count = 0usize;
        let mut leaf_area = 0.0f64;
        for n in &self.nodes {
            if n.leaf && !n.entries.is_empty() {
                leaf_count += 1;
                leaf_area += n.mbb().area();
            }
        }
        TreeStats {
            points: self.points.len(),
            depth: self.depth(),
            node_count: self.nodes.len(),
            leaf_count,
            points_per_leaf: MAX_ENTRIES,
            mean_leaf_area: if leaf_count == 0 {
                0.0
            } else {
                leaf_area / leaf_count as f64
            },
        }
    }
}

impl SpatialIndex for DynamicRTree {
    fn points(&self) -> &[Point2] {
        &self.points
    }

    fn range_candidates(&self, query: &Mbb, out: &mut Vec<PointId>) {
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id];
            for (mbb, &entry) in node.mbbs.iter().zip(&node.entries) {
                if mbb.intersects(query) {
                    if node.leaf {
                        out.push(entry);
                    } else {
                        stack.push(entry as usize);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbp_geom::Point2;

    fn spiral(n: usize) -> Vec<Point2> {
        (0..n)
            .map(|i| {
                let t = i as f64 * 0.37;
                Point2::new(t * t.cos(), t * t.sin())
            })
            .collect()
    }

    #[test]
    fn insert_then_query_matches_brute_force() {
        let pts = spiral(300);
        let tree = DynamicRTree::from_points(&pts);
        assert_eq!(tree.len(), 300);
        let center = Point2::new(0.0, 0.0);
        for eps in [0.5, 3.0, 20.0, 200.0] {
            let mut got = Vec::new();
            tree.epsilon_neighbors(center, eps, &mut got);
            got.sort_unstable();
            let expect: Vec<PointId> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| p.within(&center, eps))
                .map(|(i, _)| i as PointId)
                .collect();
            assert_eq!(got, expect, "eps={eps}");
        }
    }

    #[test]
    fn node_invariants_hold() {
        let pts = spiral(500);
        let tree = DynamicRTree::from_points(&pts);
        // Every non-root node has between MIN and MAX entries; parent MBBs
        // contain child MBBs.
        let mut stack = vec![tree.root];
        while let Some(id) = stack.pop() {
            let node = &tree.nodes[id];
            assert!(node.entries.len() <= MAX_ENTRIES);
            if id != tree.root {
                assert!(node.entries.len() >= MIN_ENTRIES, "underfull node");
            }
            if !node.leaf {
                for (mbb, &child) in node.mbbs.iter().zip(&node.entries) {
                    let child_mbb = tree.nodes[child as usize].mbb();
                    assert!(mbb.contains_mbb(&child_mbb));
                    stack.push(child as usize);
                }
            } else {
                for (mbb, &pid) in node.mbbs.iter().zip(&node.entries) {
                    assert!(mbb.contains_point(&tree.points[pid as usize]));
                }
            }
        }
    }

    #[test]
    fn every_point_reachable() {
        let pts = spiral(257);
        let tree = DynamicRTree::from_points(&pts);
        let mut out = Vec::new();
        let everything = Mbb::new(Point2::new(-1e9, -1e9), Point2::new(1e9, 1e9));
        tree.range_query(&everything, &mut out);
        out.sort_unstable();
        assert_eq!(out, (0..257).collect::<Vec<_>>());
    }

    #[test]
    fn duplicate_points_are_kept() {
        let p = Point2::new(1.0, 1.0);
        let tree = DynamicRTree::from_points(&[p; 40]);
        let mut out = Vec::new();
        tree.epsilon_neighbors(p, 0.0, &mut out);
        assert_eq!(out.len(), 40);
    }

    #[test]
    fn depth_grows_logarithmically() {
        let tree = DynamicRTree::from_points(&spiral(2000));
        let d = tree.depth();
        assert!((2..=6).contains(&d), "depth {d} out of expected band");
    }

    #[test]
    fn empty_tree_queries() {
        let tree = DynamicRTree::new();
        let mut out = Vec::new();
        tree.epsilon_neighbors(Point2::ORIGIN, 5.0, &mut out);
        assert!(out.is_empty());
        assert_eq!(tree.depth(), 1);
    }
}
