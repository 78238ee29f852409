//! Disjoint-set (union-find) structures, sequential and lock-free
//! concurrent.
//!
//! Substrate for the related-work baseline of §III: Patwary et al.'s
//! parallel DBSCAN builds clusters as connected components of the
//! core-point adjacency graph using a disjoint-set structure. The
//! concurrent variant here uses the standard lock-free scheme: parents in
//! `AtomicU32`, unions by index order with CAS, lookups with path
//! halving — safe to call from many threads simultaneously.

use std::sync::atomic::{AtomicU32, Ordering};

/// Sequential union-find with path compression and union by rank.
#[derive(Clone, Debug)]
pub struct DisjointSets {
    parent: Vec<u32>,
    rank: Vec<u8>,
}

impl DisjointSets {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize);
        Self {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Adds one singleton set and returns its element.
    pub fn push(&mut self) -> u32 {
        let x = self.parent.len() as u32;
        assert!(x < u32::MAX);
        self.parent.push(x);
        self.rank.push(0);
        x
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    /// Merges the sets of `a` and `b`; returns `true` if they were
    /// previously distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        match self.rank[ra as usize].cmp(&self.rank[rb as usize]) {
            std::cmp::Ordering::Less => self.parent[ra as usize] = rb,
            std::cmp::Ordering::Greater => self.parent[rb as usize] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb as usize] = ra;
                self.rank[ra as usize] += 1;
            }
        }
        true
    }

    /// Returns `true` if `a` and `b` share a set.
    pub fn same(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Number of distinct sets.
    pub fn set_count(&mut self) -> usize {
        (0..self.parent.len() as u32)
            .filter(|&x| self.find(x) == x)
            .count()
    }
}

/// Lock-free concurrent union-find.
///
/// `find` uses path halving (benign CAS races simply skip a shortcut);
/// `union` links the larger root under the smaller with CAS and retries,
/// which makes the final component structure independent of interleaving.
/// No ranks are kept — index-ordered linking bounds tree height well
/// enough in practice and keeps the hot word count at one atomic per
/// element.
#[derive(Debug)]
pub struct ConcurrentDisjointSets {
    parent: Vec<AtomicU32>,
}

impl ConcurrentDisjointSets {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize);
        Self {
            parent: (0..n as u32).map(AtomicU32::new).collect(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of `x`'s set (with path halving). Safe concurrently
    /// with unions; the result is a then-current root.
    pub fn find(&self, x: u32) -> u32 {
        let mut cur = x;
        loop {
            let p = self.parent[cur as usize].load(Ordering::Acquire);
            if p == cur {
                return cur;
            }
            let gp = self.parent[p as usize].load(Ordering::Acquire);
            if gp != p {
                // Path halving: point cur at its grandparent. A lost race
                // only means a missed shortcut.
                let _ = self.parent[cur as usize].compare_exchange(
                    p,
                    gp,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                );
            }
            cur = p;
        }
    }

    /// Merges the sets of `a` and `b`; returns `true` if this call
    /// performed the link.
    pub fn union(&self, a: u32, b: u32) -> bool {
        let mut ra = self.find(a);
        let mut rb = self.find(b);
        loop {
            if ra == rb {
                return false;
            }
            // Deterministic direction: larger index under smaller.
            let (hi, lo) = if ra > rb { (ra, rb) } else { (rb, ra) };
            match self.parent[hi as usize].compare_exchange(
                hi,
                lo,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(_) => {
                    // hi gained a parent concurrently; re-resolve roots.
                    ra = self.find(ra);
                    rb = self.find(rb);
                }
            }
        }
    }

    /// Returns `true` if `a` and `b` currently share a set. Only stable
    /// once all unions have completed.
    pub fn same(&self, a: u32, b: u32) -> bool {
        // Standard double-check loop for concurrent find.
        loop {
            let ra = self.find(a);
            let rb = self.find(b);
            if ra == rb {
                return true;
            }
            // If ra is still a root, the answer was momentarily correct.
            if self.parent[ra as usize].load(Ordering::Acquire) == ra {
                return false;
            }
        }
    }

    /// Snapshot of each element's root. Call after all unions complete.
    pub fn roots(&self) -> Vec<u32> {
        (0..self.parent.len() as u32)
            .map(|x| self.find(x))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_basics() {
        let mut ds = DisjointSets::new(6);
        assert_eq!(ds.set_count(), 6);
        assert!(ds.union(0, 1));
        assert!(ds.union(2, 3));
        assert!(!ds.union(1, 0));
        assert!(ds.same(0, 1));
        assert!(!ds.same(0, 2));
        ds.union(1, 2);
        assert!(ds.same(0, 3));
        assert_eq!(ds.set_count(), 3); // {0,1,2,3}, {4}, {5}
    }

    #[test]
    fn sequential_path_compression_is_transparent() {
        let mut ds = DisjointSets::new(100);
        for i in 0..99 {
            ds.union(i, i + 1);
        }
        assert_eq!(ds.set_count(), 1);
        for i in 0..100 {
            assert_eq!(ds.find(i), ds.find(0));
        }
    }

    #[test]
    fn pushed_elements_union_and_find_like_constructed_ones() {
        let mut ds = DisjointSets::new(2);
        assert!(ds.union(0, 1));
        assert_eq!((ds.push(), ds.push()), (2, 3));
        assert_eq!(ds.len(), 4);
        assert_eq!(ds.find(2), 2);
        assert!(ds.union(3, 0));
        assert!(!ds.union(1, 3));
        assert_eq!(ds.find(3), ds.find(1));
        assert_ne!(ds.find(2), ds.find(0));
        assert_eq!(ds.set_count(), 2); // {0,1,3}, {2}
    }

    #[test]
    fn concurrent_matches_sequential_single_threaded() {
        let edges: Vec<(u32, u32)> = (0..50).map(|i| (i, (i * 7 + 3) % 50)).collect();
        let mut seq = DisjointSets::new(50);
        let conc = ConcurrentDisjointSets::new(50);
        for &(a, b) in &edges {
            seq.union(a, b);
            conc.union(a, b);
        }
        for a in 0..50 {
            for b in 0..50 {
                assert_eq!(seq.same(a, b), conc.same(a, b), "pair ({a}, {b})");
            }
        }
    }

    #[test]
    fn concurrent_under_contention() {
        // 8 threads union overlapping chains; final structure must be one
        // component per chain group regardless of interleaving.
        let n = 4_000u32;
        let ds = ConcurrentDisjointSets::new(n as usize);
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let ds = &ds;
                s.spawn(move || {
                    // Each thread unions i with i+8 within its residue
                    // class => 8 components (one per residue mod 8).
                    let mut i = t;
                    while i + 8 < n {
                        ds.union(i, i + 8);
                        i += 8;
                    }
                });
            }
        });
        let roots = ds.roots();
        let distinct: std::collections::HashSet<u32> = roots.iter().copied().collect();
        assert_eq!(distinct.len(), 8);
        for i in 0..n {
            assert_eq!(roots[i as usize], roots[(i % 8) as usize]);
        }
    }

    #[test]
    fn overlapping_racing_shares_match_sequential_with_min_roots() {
        // The sharded kernel's shape: threads race on one edge list and
        // an edge may be applied by both of its endpoints' workers. Here
        // each of 8 threads applies every edge `i` with
        // `(i + t) % 8 < 3`, so every edge is applied by exactly 3.
        let n = 3_000u32;
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let edges: Vec<(u32, u32)> = (0..2_400)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (
                    (state % u64::from(n)) as u32,
                    ((state >> 32) % u64::from(n)) as u32,
                )
            })
            .collect();
        let conc = ConcurrentDisjointSets::new(n as usize);
        std::thread::scope(|s| {
            for t in 0..8usize {
                let (conc, edges) = (&conc, &edges);
                s.spawn(move || {
                    for (i, &(a, b)) in edges.iter().enumerate() {
                        if (i + t) % 8 < 3 {
                            conc.union(a, b);
                        }
                    }
                });
            }
        });

        let mut seq = DisjointSets::new(n as usize);
        for &(a, b) in &edges {
            seq.union(a, b);
        }
        // Each sequential component's minimum id; ascending x sees it
        // first.
        let mut min_of = vec![u32::MAX; n as usize];
        for x in 0..n {
            let r = seq.find(x) as usize;
            min_of[r] = min_of[r].min(x);
        }
        // Equal partitions, and every concurrent root is its component's
        // minimum id — the label pass's determinism rests on the latter.
        let roots = conc.roots();
        for x in 0..n {
            assert_eq!(
                roots[x as usize],
                min_of[seq.find(x) as usize],
                "element {x}"
            );
        }
    }

    #[test]
    fn concurrent_racing_unions_on_same_pair() {
        let ds = ConcurrentDisjointSets::new(2);
        let winners = std::sync::atomic::AtomicU32::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let ds = &ds;
                let winners = &winners;
                s.spawn(move || {
                    if ds.union(0, 1) {
                        winners.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        // Exactly one thread performs the link.
        assert_eq!(winners.load(Ordering::Relaxed), 1);
        assert!(ds.same(0, 1));
    }

    #[test]
    fn empty_structures() {
        assert!(DisjointSets::new(0).is_empty());
        assert!(ConcurrentDisjointSets::new(0).is_empty());
        assert!(ConcurrentDisjointSets::new(0).roots().is_empty());
    }
}
