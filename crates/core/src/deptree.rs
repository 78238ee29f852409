//! The static variant dependency tree of Figure 3(a).
//!
//! With global knowledge (disregarding execution order), each variant's
//! ideal reuse source is the variant minimizing the component-wise
//! parameter difference among those satisfying the inclusion criteria.
//! The resulting forest explains the schedules of Figure 3(b)–(c) and can
//! be exported to Graphviz for inspection; `examples/scheduling_demo.rs`
//! prints it beside the online schedule. No test outside this module
//! reads it: the scheduler's own tests hold SchedGreedy's choices.

use crate::variant::VariantSet;

/// A parent-pointer forest over a [`VariantSet`].
#[derive(Clone, Debug, PartialEq)]
pub struct DependencyTree {
    variants: VariantSet,
    /// `parent[i]` = preferred reuse source of variant `i` (canonical
    /// indices), `None` for roots.
    parent: Vec<Option<usize>>,
}

impl DependencyTree {
    /// Builds the forest: variant `i`'s parent is the earlier variant `j`
    /// (canonical order, `j < i`) that `i` can reuse, minimizing the
    /// normalized parameter distance. Restricting to earlier variants
    /// breaks the tie cycles identical variants would otherwise create
    /// and matches the canonical execution order.
    pub fn build(variants: VariantSet) -> Self {
        let er = variants.eps_range();
        let mr = variants.minpts_range();
        let parent = (0..variants.len())
            .map(|i| {
                let vi = variants[i];
                let mut best: Option<(f64, usize)> = None;
                for j in 0..i {
                    if !vi.can_reuse(&variants[j]) {
                        continue;
                    }
                    let d = vi.param_distance(&variants[j], er, mr);
                    let cand = (d, j);
                    if best.is_none_or(|b| cand < b) {
                        best = Some(cand);
                    }
                }
                best.map(|(_, j)| j)
            })
            .collect();
        Self { variants, parent }
    }

    /// The variant set this tree is over.
    pub fn variants(&self) -> &VariantSet {
        &self.variants
    }

    /// Preferred reuse source of variant `i`.
    pub fn parent(&self, i: usize) -> Option<usize> {
        self.parent[i]
    }

    /// Indices of the roots (variants that must cluster from scratch under
    /// ideal global knowledge).
    pub fn roots(&self) -> Vec<usize> {
        (0..self.parent.len())
            .filter(|&i| self.parent[i].is_none())
            .collect()
    }

    /// Children of variant `i`.
    pub fn children(&self, i: usize) -> Vec<usize> {
        (0..self.parent.len())
            .filter(|&c| self.parent[c] == Some(i))
            .collect()
    }

    /// Depth of variant `i` (roots have depth 0).
    pub fn depth(&self, i: usize) -> usize {
        let mut d = 0;
        let mut cur = i;
        while let Some(p) = self.parent[cur] {
            d += 1;
            cur = p;
        }
        d
    }

    /// A depth-first schedule over the forest — the ordering Figure 3(b)
    /// illustrates for T = 1.
    pub fn depth_first_order(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.parent.len());
        let mut stack: Vec<usize> = self.roots().into_iter().rev().collect();
        while let Some(i) = stack.pop() {
            order.push(i);
            let mut kids = self.children(i);
            kids.reverse();
            stack.extend(kids);
        }
        order
    }

    /// Graphviz DOT rendering, for documentation and debugging.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let mut s = String::from("digraph variants {\n  rankdir=BT;\n");
        for i in 0..self.parent.len() {
            let v = self.variants[i];
            let _ = writeln!(s, "  v{i} [label=\"({}, {})\"];", v.eps, v.minpts);
        }
        for (i, p) in self.parent.iter().enumerate() {
            if let Some(p) = p {
                let _ = writeln!(s, "  v{i} -> v{p};");
            }
        }
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variant::Variant;

    fn figure3() -> DependencyTree {
        DependencyTree::build(VariantSet::cartesian(&[0.2, 0.4, 0.6], &[20, 24, 28, 32]))
    }

    #[test]
    fn single_root_is_smallest_eps_largest_minpts() {
        let t = figure3();
        let roots = t.roots();
        assert_eq!(roots, vec![0]);
        assert_eq!(t.variants()[0], Variant::new(0.2, 32));
    }

    #[test]
    fn parents_satisfy_inclusion_criteria() {
        let t = figure3();
        for i in 0..t.variants().len() {
            if let Some(p) = t.parent(i) {
                assert!(t.variants()[i].can_reuse(&t.variants()[p]));
                assert!(p < i);
            }
        }
    }

    #[test]
    fn figure3_example_edge() {
        // (0.6, 20) minimizes component-wise difference with (0.6, 24),
        // not (0.2, 32).
        let t = figure3();
        let set = t.variants().clone();
        let i = (0..set.len())
            .find(|&i| set[i] == Variant::new(0.6, 20))
            .unwrap();
        let p = t.parent(i).unwrap();
        assert_eq!(set[p], Variant::new(0.6, 24));
    }

    #[test]
    fn depth_first_order_is_a_permutation_and_parent_first() {
        let t = figure3();
        let order = t.depth_first_order();
        assert_eq!(order.len(), t.variants().len());
        let pos: std::collections::HashMap<usize, usize> =
            order.iter().enumerate().map(|(p, &v)| (v, p)).collect();
        for i in 0..t.variants().len() {
            if let Some(p) = t.parent(i) {
                assert!(pos[&p] < pos[&i], "parent {p} after child {i}");
            }
        }
    }

    #[test]
    fn identical_variants_chain_without_cycles() {
        let t = DependencyTree::build(VariantSet::replicated(Variant::new(0.5, 4), 4));
        assert_eq!(t.roots(), vec![0]);
        for i in 1..4 {
            assert!(t.parent(i).is_some());
            assert!(t.depth(i) >= 1);
        }
    }

    #[test]
    fn dot_output_contains_every_variant() {
        let t = figure3();
        let dot = t.to_dot();
        assert!(dot.contains("digraph"));
        for i in 0..t.variants().len() {
            assert!(dot.contains(&format!("v{i} ")));
        }
    }

    #[test]
    fn disjoint_parameter_islands_give_multiple_roots() {
        // Two ε values where the larger-ε group has strictly larger
        // minpts: no reuse possible between groups.
        let set = VariantSet::new(vec![
            Variant::new(0.1, 4),
            Variant::new(0.2, 50),
            Variant::new(0.2, 40),
        ]);
        let t = DependencyTree::build(set);
        // (0.1,4) is root; (0.2,50) cannot reuse (0.1,4) since 50 > 4.
        assert_eq!(t.roots().len(), 2);
    }
}
