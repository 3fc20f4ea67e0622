//! The **query plan tree** (paper Algorithm 3).
//!
//! Fix an order `e₁, …, e_m` of the hyperedges. [`build_qp_tree`] takes the
//! hypergraph's own (input) order; the compiled plan behind
//! [`PreparedQuery`](super::PreparedQuery) chooses an order whose total
//! order is the output schema, when one exists, and passes the hypergraph
//! with its edges permuted into it. The QP tree is built by
//! `build-tree(V, m)`:
//!
//! * return `nil` if every `e_i ∩ U = ∅` for `i ∈ [k]`;
//! * create a node with `label = k`, `univ = U`;
//! * if `k > 1` and some `e_i` (i ≤ k) does not contain `U`, recurse:
//!   left child on `(U ∖ e_k, k−1)`, right child on `(U ∩ e_k, k−1)`.
//!
//! A node that never attempts children is a **leaf** (its universe is
//! contained in every one of its `k` edges). Each node is the "skeleton" of
//! a family of sub-problems of `Recursive-Join`; `e_k` is the node's
//! *anchor* relation (paper §5.3.1).

use wcoj_hypergraph::Hypergraph;

/// A query-plan-tree node.
#[derive(Debug, Clone)]
pub struct QpNode {
    /// The paper's `label(u)`: the number `k` of edges (`e₁..e_k`) in play
    /// at this node; the anchor is `e_k` (edge index `k − 1`).
    pub label: usize,
    /// The paper's `univ(u)`: attribute (vertex) subset, sorted.
    pub univ: Vec<usize>,
    /// Left child — sub-problem on `univ ∖ e_k`.
    pub left: Option<Box<QpNode>>,
    /// Right child — sub-problem on `univ ∩ e_k`.
    pub right: Option<Box<QpNode>>,
    /// `true` iff the node did not attempt children (every `e_i ⊇ univ` or
    /// `k = 1`): the recursion bottoms out with a direct intersection.
    pub is_leaf: bool,
}

impl QpNode {
    /// Number of nodes in this subtree.
    #[must_use]
    pub fn size(&self) -> usize {
        1 + self.left.as_ref().map_or(0, |n| n.size()) + self.right.as_ref().map_or(0, |n| n.size())
    }

    /// Height of this subtree (leaf = 1).
    #[must_use]
    pub fn height(&self) -> usize {
        1 + self
            .left
            .as_ref()
            .map_or(0, |n| n.height())
            .max(self.right.as_ref().map_or(0, |n| n.height()))
    }

    /// Pretty-prints the tree, one node per line, for the harness output
    /// (reproduces the paper's Figures 1 and 2 textually).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        use std::fmt::Write;
        let univ: Vec<String> = self.univ.iter().map(|v| (v + 1).to_string()).collect();
        let _ = writeln!(
            out,
            "{}label={} univ={{{}}}{}",
            "  ".repeat(depth),
            self.label,
            univ.join(","),
            if self.is_leaf { " [leaf]" } else { "" }
        );
        if let Some(l) = &self.left {
            l.render_into(out, depth + 1);
        } else if !self.is_leaf {
            let _ = writeln!(out, "{}(nil)", "  ".repeat(depth + 1));
        }
        if let Some(r) = &self.right {
            r.render_into(out, depth + 1);
        } else if !self.is_leaf {
            let _ = writeln!(out, "{}(nil)", "  ".repeat(depth + 1));
        }
    }
}

/// Builds the QP tree for `h` with edge order `e₁..e_m` = input order.
/// Returns `None` for degenerate queries whose attribute set is empty.
#[must_use]
pub fn build_qp_tree(h: &Hypergraph) -> Option<Box<QpNode>> {
    let v: Vec<usize> = {
        // V = all vertices that occur in some edge.
        let mut seen = vec![false; h.num_vertices()];
        for e in h.edges() {
            for &x in e {
                seen[x] = true;
            }
        }
        (0..h.num_vertices()).filter(|&x| seen[x]).collect()
    };
    build(h, v, h.num_edges())
}

fn build(h: &Hypergraph, u: Vec<usize>, k: usize) -> Option<Box<QpNode>> {
    if k == 0 {
        return None;
    }
    // line 1: nil when no e_i (i ≤ k) meets U.
    if (0..k).all(|i| u.iter().all(|&v| !h.edge_contains(i, v))) {
        return None;
    }
    let mut node = QpNode {
        label: k,
        univ: u.clone(),
        left: None,
        right: None,
        is_leaf: true,
    };
    let some_edge_lacks_u = (0..k).any(|i| u.iter().any(|&v| !h.edge_contains(i, v)));
    if k > 1 && some_edge_lacks_u {
        node.is_leaf = false;
        let ek = k - 1; // anchor edge index
        let u_minus: Vec<usize> = u
            .iter()
            .copied()
            .filter(|&v| !h.edge_contains(ek, v))
            .collect();
        let u_cap: Vec<usize> = u
            .iter()
            .copied()
            .filter(|&v| h.edge_contains(ek, v))
            .collect();
        node.left = build(h, u_minus, k - 1);
        node.right = build(h, u_cap, k - 1);
    }
    Some(Box::new(node))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 2 query (0-based attributes):
    /// R1(0,1,3,4), R2(0,2,3,5), R3(0,1,2), R4(1,3,5), R5(2,4,5).
    pub(crate) fn figure2() -> Hypergraph {
        Hypergraph::new(
            6,
            vec![
                vec![0, 1, 3, 4],
                vec![0, 2, 3, 5],
                vec![0, 1, 2],
                vec![1, 3, 5],
                vec![2, 4, 5],
            ],
        )
        .unwrap()
    }

    #[test]
    fn figure2_root_split() {
        let t = build_qp_tree(&figure2()).unwrap();
        assert_eq!(t.label, 5);
        assert_eq!(t.univ, vec![0, 1, 2, 3, 4, 5]);
        assert!(!t.is_leaf);
        // e5 = {2,4,5}: left = V∖e5 = {0,1,3}, right = {2,4,5} — the
        // paper's {1,2,4} and {3,5,6} in 1-based numbering.
        assert_eq!(t.left.as_ref().unwrap().univ, vec![0, 1, 3]);
        assert_eq!(t.right.as_ref().unwrap().univ, vec![2, 4, 5]);
        assert_eq!(t.left.as_ref().unwrap().label, 4);
        assert_eq!(t.right.as_ref().unwrap().label, 4);
    }

    #[test]
    fn figure2_left_subtree() {
        let t = build_qp_tree(&figure2()).unwrap();
        let l = t.left.as_ref().unwrap();
        // e4 = {1,3,5}: {0,1,3} splits into {0} and {1,3}.
        let ll = l.left.as_ref().unwrap();
        let lr = l.right.as_ref().unwrap();
        assert_eq!(ll.univ, vec![0]);
        assert!(ll.is_leaf, "{{0}} ⊆ every of e1,e2,e3");
        assert_eq!(ll.label, 3);
        assert_eq!(lr.univ, vec![1, 3]);
        assert!(!lr.is_leaf);
        // e3 = {0,1,2}: {1,3} splits into {3} (leaf at label 2) and {1}.
        assert_eq!(lr.left.as_ref().unwrap().univ, vec![3]);
        assert!(lr.left.as_ref().unwrap().is_leaf);
        let one = lr.right.as_ref().unwrap();
        assert_eq!(one.univ, vec![1]);
        assert!(!one.is_leaf);
        // e2 = {0,2,3,5} ∌ 1 → left keeps {1}, right is nil.
        assert_eq!(one.left.as_ref().unwrap().univ, vec![1]);
        assert!(one.left.as_ref().unwrap().is_leaf);
        assert!(one.right.is_none());
    }

    #[test]
    fn figure2_right_subtree_has_double_nil_node() {
        let t = build_qp_tree(&figure2()).unwrap();
        let r = t.right.as_ref().unwrap(); // {2,4,5}
        let rl = r.left.as_ref().unwrap(); // {2,4}
        assert_eq!(rl.univ, vec![2, 4]);
        let two = rl.right.as_ref().unwrap(); // univ {2}, label 2
        assert_eq!(two.univ, vec![2]);
        assert!(!two.is_leaf);
        // e1 ∌ 2 and e2 ∋ 2, but e1 ∩ {2} = ∅ kills both children:
        assert!(two.left.is_none());
        assert!(two.right.is_none());
    }

    #[test]
    fn leaf_when_all_edges_contain_universe() {
        // Two identical edges: V ⊆ both → root is a leaf.
        let h = Hypergraph::new(2, vec![vec![0, 1], vec![0, 1]]).unwrap();
        let t = build_qp_tree(&h).unwrap();
        assert!(t.is_leaf);
        assert_eq!(t.label, 2);
    }

    #[test]
    fn single_relation_is_leaf() {
        let h = Hypergraph::new(3, vec![vec![0, 1, 2]]).unwrap();
        let t = build_qp_tree(&h).unwrap();
        assert!(t.is_leaf);
        assert_eq!(t.label, 1);
        assert_eq!(t.univ, vec![0, 1, 2]);
    }

    #[test]
    fn empty_attribute_set_gives_none() {
        let h = Hypergraph::new(0, vec![vec![], vec![]]).unwrap();
        assert!(build_qp_tree(&h).is_none());
    }

    #[test]
    fn triangle_tree_shape() {
        // R(0,1), S(1,2), T(0,2): root label 3 anchored at T.
        let h = Hypergraph::new(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]]).unwrap();
        let t = build_qp_tree(&h).unwrap();
        assert_eq!(t.label, 3);
        assert_eq!(t.left.as_ref().unwrap().univ, vec![1]); // V∖T = {1}
        assert_eq!(t.right.as_ref().unwrap().univ, vec![0, 2]);
        assert!(t.size() >= 3);
        assert!(t.height() >= 2);
    }

    #[test]
    fn render_is_nonempty_and_indented() {
        let t = build_qp_tree(&figure2()).unwrap();
        let s = t.render();
        assert!(s.contains("label=5 univ={1,2,3,4,5,6}"));
        assert!(s.lines().count() >= 10);
    }
}
