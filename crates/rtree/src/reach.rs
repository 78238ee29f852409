//! The leaf-reach table: for one packed tree and one ε, the leaves each
//! leaf can reach.
//!
//! An ε-search centred on an indexed point `p` scans exactly the leaves
//! whose box meets `p`'s ε-box. `p` lies inside its own leaf's box, so
//! that ε-box lies inside the leaf's box inflated by ε; both are computed
//! by the same roundings (`x − ε`, `x + ε`), which are monotone, so the
//! containment holds in floating point too. Every leaf such a search
//! scans is therefore among those that meet the inflated box of `p`'s
//! leaf, and a search that tests only those — in the order the tree walk
//! visits them — scans the walk's leaves in the walk's order, without the
//! walk. Wang, Gu and Shun's parallel DBSCAN precomputes each grid cell's
//! neighbouring cells within ε the same way.
//!
//! Algorithm 3's harvest uses the same lists: a point within ε of a
//! member lies in a leaf that meets the inflated box of the member's
//! leaf.

use vbp_geom::PointId;

use crate::packed::PackedRTree;
use crate::traits::SpatialIndex;

/// For one [`PackedRTree`] and one ε: for each leaf `j`, the leaves whose
/// box meets leaf `j`'s box inflated by ε, in the order the tree walk
/// ([`PackedRTree::for_each_overlapping_leaf`]) visits them.
///
/// Built by [`SpatialIndex::leaf_reach`] and read by
/// [`SpatialIndex::epsilon_count_keyed_at`]. Stored as compressed rows
/// (an offset per leaf and one `u32` per entry), and never larger than
/// one entry per indexed point: a build that would exceed that — at
/// `r = 1`, or when ε spans the data, where the table grows as the
/// square of the leaf count — stops and returns `None`, and searches walk
/// the tree instead.
#[derive(Clone, Debug)]
pub struct LeafReach {
    eps: f64,
    /// The tree's points per leaf.
    r: usize,
    /// Leaf `j`'s row is `leaves[offsets[j]..offsets[j + 1]]`.
    offsets: Vec<u32>,
    leaves: Vec<u32>,
}

impl LeafReach {
    /// One walk per leaf, over the leaf's box inflated by `eps`; `None`
    /// once the rows hold more entries than `tree` holds points.
    pub(crate) fn build(tree: &PackedRTree, eps: f64) -> Option<Self> {
        let budget = tree.len();
        let boxes = tree.leaf_mbbs();
        let mut offsets = Vec::with_capacity(boxes.len() + 1);
        let mut leaves = Vec::new();
        offsets.push(0);
        for leaf in boxes {
            tree.walk(&leaf.inflate(eps), |leaf| leaves.push(leaf as u32));
            if leaves.len() > budget {
                return None;
            }
            offsets.push(leaves.len() as u32);
        }
        Some(Self {
            eps,
            r: tree.points_per_leaf(),
            offsets,
            leaves,
        })
    }

    /// The ε the table was built for.
    #[inline]
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The tree's points per leaf.
    #[inline]
    pub fn points_per_leaf(&self) -> usize {
        self.r
    }

    /// The leaf that holds the tree's point `id`.
    #[inline]
    pub fn leaf_of(&self, id: PointId) -> usize {
        id as usize / self.r
    }

    /// Number of leaves the table has a row for.
    #[inline]
    pub fn leaf_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The leaves `leaf` reaches, in walk order.
    #[inline]
    pub fn of(&self, leaf: usize) -> &[u32] {
        &self.leaves[self.offsets[leaf] as usize..self.offsets[leaf + 1] as usize]
    }

    /// Entries over all rows: at most the tree's point count.
    #[inline]
    pub fn entries(&self) -> usize {
        self.leaves.len()
    }
}
