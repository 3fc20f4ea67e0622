//! The compiled form of `Recursive-Join`'s query-only work.
//!
//! Everything Procedure 5 derives from the query alone — each QP-tree
//! node's `W`/`W⁻` split, which earlier edges constrain `W⁻` and where
//! their attributes sit inside `t_{W⁻}`, which trie levels a section
//! descends, whether case a is sound at all — is fixed once the QP tree
//! (Algorithm 3) and the total order (Algorithm 4) are. [`JoinPlan`]
//! computes it once; the engine then only moves values.
//!
//! (TO1) makes every `univ(u)` a block of consecutive total-order
//! positions and (TO2) puts `W` before `W⁻` inside it, so a node's
//! attribute sets are stored as *position ranges*: `t_S` is the prefix
//! `[0, start)` of the engine's binding stack, `t_W` is
//! `[start, wm_start)`, and `t_{W⁻}` is `[wm_start, start + arity)`.
//!
//! Algorithm 3 builds the tree from "an arbitrary order `e₁, …, e_m`" of
//! the edges, and Theorem 5.1 holds under every one. That order is the
//! plan's one free choice, and [`JoinPlan::compile`] spends it on the
//! output: it picks an order whose total order is the output schema, so
//! the engine's rows come out in the order the client reads them, or
//! failing that one whose total order starts like the schema, so the
//! shard slots that cut its first two attributes (§5.2) come out in the
//! client's order and only the rows inside each slot are re-keyed. Two
//! numberings of the edges therefore meet here. A **QP position** `i`
//! names `e_{i+1}` of that order; it indexes labels, anchors and cover
//! vectors. An **input edge** names a relation of the query; it indexes
//! search trees ([`Section::edge`]) and everything public.

use super::qptree::{build_qp_tree, QpNode};
use super::total_order::{positions, total_order};
use wcoj_hypergraph::Hypergraph;

/// Edge counts up to which [`JoinPlan::compile`] tries every edge order
/// (6! = 720 trees); larger queries keep input order.
const SEARCHED_EDGES: usize = 6;

/// How many leading total-order attributes shard slots cut: root shards
/// range over the first, anchored sub-shards over the second. A plan
/// whose total order starts with the schema's first `min(2, n)`
/// attributes emits its slots in schema order.
pub(crate) const SLOT_ATTRIBUTES: usize = 2;

/// A `PreparedQuery`'s data-independent half: total order, per-relation
/// trie level orders, and one [`NodePlan`] per reachable QP-tree node.
pub(crate) struct JoinPlan {
    /// Algorithm 3's edge order: `edge_order[i]` is the input edge at QP
    /// position `i`.
    pub(crate) edge_order: Vec<usize>,
    /// The total order of attributes (vertex ids).
    pub(crate) order: Vec<usize>,
    /// Per output column (vertex `v`, the output schema's `v`-th
    /// attribute): its total-order position, where a raw row holds it.
    pub(crate) columns: Vec<usize>,
    /// How many leading attributes the total order shares with the
    /// output schema: raw rows already ascend in the schema's first
    /// `prefix` columns. The order's length when it is the schema.
    pub(crate) prefix: usize,
    /// How many leading output columns the raw rows must be re-sorted
    /// by: the shortest prefix of the output schema whose removal from
    /// the total order leaves the rest of the schema in order. 0 when the
    /// total order is the output schema.
    pub(crate) key_len: usize,
    /// Per input edge: its vertices sorted by total-order position (= the
    /// level order of its search tree).
    pub(crate) edge_vertices: Vec<Vec<usize>>,
    /// Node arena; children are indices into it.
    pub(crate) nodes: Vec<NodePlan>,
    /// The root's index; `None` for a query without attributes.
    pub(crate) root: Option<usize>,
    /// Longest chain of nested [`NodeKind::Split`] nodes: how many
    /// per-level buffer sets a run needs.
    pub(crate) levels: usize,
    /// Length of the per-run cover table ([`JoinPlan::resolve_covers`]).
    cover_len: usize,
}

/// One QP-tree node, compiled.
pub(crate) struct NodePlan {
    /// The paper's `label(u) = k`: edges `e_1..e_k` are in play and
    /// `e_k` (QP position `k − 1`) is the anchor.
    pub(crate) k: usize,
    /// `|univ(u)|` — the width of the rows this node produces.
    pub(crate) arity: usize,
    /// Total-order position of `univ(u)`'s first attribute; everything
    /// before it is the bound prefix `t_S`.
    pub(crate) start: usize,
    /// Where this node's `k` cover entries sit in the per-run table.
    pub(crate) cover_at: usize,
    pub(crate) kind: NodeKind,
}

pub(crate) enum NodeKind {
    /// Procedure 5 lines 3–9: intersect the sections of the edges that
    /// span all of `univ(u)`. `filters` are the anchors pushed down from
    /// enclosing case-a splits ([`Split::filters`]): each candidate must
    /// also extend their sections, but they are never scanned or sized.
    Leaf {
        covering: Vec<Section>,
        filters: Vec<Section>,
    },
    /// `univ(u) ∩ e_k = ∅` (line 17): the node's rows are its left
    /// child's.
    Pass { left: usize },
    /// Lines 10–29.
    Split(Split),
    /// No edge in play can bind some attribute of `univ(u)`. A valid
    /// cover never sends the engine here; it yields no rows.
    Dead,
}

pub(crate) struct Split {
    /// Sub-problem on `W = univ(u) ∖ e_k`; `None` when `W = ∅`.
    pub(crate) left: Option<usize>,
    /// Sub-problem on `W⁻ = univ(u) ∩ e_k`, compiled only when case a is
    /// sound (`rc_coverable`): the child exists and every `W⁻` attribute
    /// lies in some earlier edge, so the rescaled vector still covers
    /// `(W⁻, E_{k−1})`. A valid cover forces `y_k ≥ 1` otherwise (Lemma
    /// 5.6), but `f64` round-off could report `1 − ε`; this structural
    /// guard keeps the choice robust.
    pub(crate) right: Option<usize>,
    /// First total-order position of `W⁻`.
    pub(crate) wm_start: usize,
    /// The anchor `e_k`'s section under `t_S`. `e_k ∩ W = ∅`, so it is
    /// the same for every `t_W` of one call.
    pub(crate) anchor: Section,
    /// Edges at QP positions `i < k − 1` that meet `W⁻`, ascending.
    pub(crate) checks: Vec<CheckEdge>,
    /// **Pushed filters**: the anchors of the enclosing splits whose right
    /// subtree holds this node, innermost last, each as its section under
    /// `t_S ∪ t_W`. Case a of a split keeps only the right child's rows
    /// its anchor `e_k` contains (lines 22–25); every node under `rc(u)`
    /// has `univ ⊆ W⁻ ⊆ e_k`, so the compiler hands `e_k` down to each of
    /// them and they drop those rows while they build them. A filter binds
    /// every `W⁻` level of the case-b walk, like a check edge over all of
    /// `W⁻`, but it is not one: the line-21 size check never reads it.
    pub(crate) filters: Vec<Section>,
    /// Per level of case b's walk (one per `W⁻` attribute, in order): the
    /// probes that bind it — each check edge holding the attribute, then
    /// every pushed filter — as (probe index, input edge). Probes count
    /// the checks, then the filters.
    pub(crate) walk: Vec<Vec<(usize, usize)>>,
}

/// `R_e[t]` for `t` the bound prefix restricted to `e`: a descent from
/// `e`'s trie root along the binding-stack `positions`.
pub(crate) struct Section {
    /// The input edge `e`, whose search tree the descent walks.
    pub(crate) edge: usize,
    pub(crate) positions: Vec<usize>,
}

pub(crate) struct CheckEdge {
    /// The edge's QP position: where its exponent sits in a node's cover
    /// vector.
    pub(crate) at: usize,
    /// The edge's section under `t_S ∪ t_W`.
    pub(crate) section: Section,
    /// Offsets inside `t_{W⁻}` of the edge's `W⁻` attributes, in trie
    /// level order — the rest of the descent that decides `t_{W⁻}`.
    pub(crate) wm_offsets: Vec<usize>,
}

impl JoinPlan {
    /// Compiles the plan for `h`, touching no data.
    ///
    /// The edge order is System R's "interesting order" applied to
    /// Algorithm 3: orders are tried in lexicographic order, input order
    /// first (all `m!` of them for `m ≤ 6`, input order alone above), and
    /// the first whose Algorithm-4 total order is ascending vertex order —
    /// the output schema — is taken. When none is, the first whose total
    /// order agrees with the schema on its first `min(2, n)` attributes
    /// (the ones shard slots cut) is; the 4-cycle's (C0, C3, C1, C2)
    /// gives (a, b, d, c). When none is either, input order stays. The
    /// shared prefix is kept as [`JoinPlan::prefix`]. Each try builds one
    /// QP tree and its total order, `O(nodes · m)`; the chosen tree is
    /// then compiled in `O(nodes · m · n)`.
    pub(crate) fn compile(h: &Hypergraph) -> JoinPlan {
        let (edge_order, qp_h, tree, order) = choose_edge_order(h);
        let pos = positions(&order, h.num_vertices());
        let edge_vertices: Vec<Vec<usize>> = (0..h.num_edges())
            .map(|e| {
                let mut vs = h.edge(e).to_vec();
                vs.sort_by_key(|&v| pos[v]);
                vs
            })
            .collect();
        let mut compiler = Compiler {
            h: &qp_h,
            edge_order: &edge_order,
            pos: &pos,
            edge_vertices: &edge_vertices,
            nodes: Vec::new(),
            cover_len: 0,
        };
        let (root, levels) = match &tree {
            Some(t) => {
                let (id, levels) = compiler.node(t, &[]);
                (Some(id), levels)
            }
            None => (None, 0),
        };
        let Compiler {
            nodes, cover_len, ..
        } = compiler;
        let key_len = (0..=pos.len())
            .find(|&j| pos[j..].is_sorted())
            .expect("an empty tail is in order");
        JoinPlan {
            edge_order,
            prefix: shared_prefix(&order),
            order,
            columns: pos,
            key_len,
            edge_vertices,
            nodes,
            root,
            levels,
            cover_len,
        }
    }

    /// The per-run half of the preparation: every node's cover vector,
    /// derived from the query's cover `x` (input edge order) by Procedure
    /// 5's own rules — the root takes `x` in QP order, a left child
    /// inherits `y[..k−1]`, a right child gets it rescaled by
    /// `1 / (1 − y_k)` (line 23). The same divisions the recursion used
    /// to redo for every partial tuple, done once: node `u`'s entries are
    /// `table[u.cover_at..][..u.k]`, indexed by QP position, and the
    /// exponents `y_i / (1 − y_k)` of its size check are its right
    /// child's entries.
    pub(crate) fn resolve_covers(&self, x: &[f64]) -> Vec<f64> {
        let mut table = vec![0.0; self.cover_len];
        let Some(root) = self.root else {
            return table;
        };
        let root = &self.nodes[root];
        for (y, &e) in table[root.cover_at..][..root.k]
            .iter_mut()
            .zip(&self.edge_order)
        {
            *y = x[e];
        }
        // Parents precede their children in the arena.
        for node in &self.nodes {
            let (left, right) = match &node.kind {
                NodeKind::Pass { left } => (Some(*left), None),
                NodeKind::Split(s) => (s.left, s.right),
                NodeKind::Leaf { .. } | NodeKind::Dead => continue,
            };
            let rest = node.cover_at..node.cover_at + node.k - 1;
            let y_k = table[rest.end];
            if let Some(lc) = left {
                table.copy_within(rest.clone(), self.nodes[lc].cover_at);
            }
            // Case a needs y_k < 1; a right child under y_k ≥ 1 is never
            // entered and keeps zeros.
            if let Some(rc) = right.filter(|_| y_k < 1.0) {
                let at = self.nodes[rc].cover_at;
                for i in 0..node.k - 1 {
                    table[at + i] = table[rest.start + i] / (1.0 - y_k);
                }
            }
        }
        table
    }
}

/// An edge order, the query with its edges in that order, the QP tree
/// Algorithm 3 builds from it, and the tree's total order.
type Choice = (Vec<usize>, Hypergraph, Option<Box<QpNode>>, Vec<usize>);

/// [`JoinPlan::compile`]'s order search over `h`'s edge orders.
fn choose_edge_order(h: &Hypergraph) -> Choice {
    let m = h.num_edges();
    let streamed = SLOT_ATTRIBUTES.min(h.num_vertices());
    let mut edge_order: Vec<usize> = (0..m).collect();
    let mut input_order: Option<Choice> = None;
    let mut prefix_order: Option<Choice> = None;
    loop {
        let edges = edge_order.iter().map(|&e| h.edge(e).to_vec()).collect();
        let qp_h = Hypergraph::new(h.num_vertices(), edges).expect("h's own edges");
        let tree = build_qp_tree(&qp_h);
        let order = tree.as_deref().map(total_order).unwrap_or_default();
        if order.windows(2).all(|w| w[0] < w[1]) {
            return (edge_order, qp_h, tree, order);
        }
        // Lexicographic order starts at the identity, so when no order
        // starts like the schema, the first one kept is input order.
        let slot = if shared_prefix(&order) >= streamed {
            &mut prefix_order
        } else {
            &mut input_order
        };
        slot.get_or_insert_with(|| (edge_order.clone(), qp_h, tree, order));
        if m > SEARCHED_EDGES || !next_permutation(&mut edge_order) {
            return prefix_order
                .or(input_order)
                .expect("input order was tried first");
        }
    }
}

/// How many leading attributes of `order` are the schema's own: vertices
/// `0, 1, …` in that order.
fn shared_prefix(order: &[usize]) -> usize {
    order
        .iter()
        .enumerate()
        .take_while(|&(i, &v)| i == v)
        .count()
}

/// Steps `p` to its successor in lexicographic order; `false` (leaving
/// `p` alone) when `p` is the last permutation.
fn next_permutation(p: &mut [usize]) -> bool {
    let Some(i) = p.windows(2).rposition(|w| w[0] < w[1]) else {
        return false;
    };
    let j = p.iter().rposition(|&x| x > p[i]).expect("p[i + 1] > p[i]");
    p.swap(i, j);
    p[i + 1..].reverse();
    true
}

struct Compiler<'a> {
    /// The query with its edges in QP order.
    h: &'a Hypergraph,
    /// QP position → input edge.
    edge_order: &'a [usize],
    pos: &'a [usize],
    /// Indexed by input edge.
    edge_vertices: &'a [Vec<usize>],
    nodes: Vec<NodePlan>,
    cover_len: usize,
}

impl Compiler<'_> {
    /// The section of the edge at QP position `at` with everything before
    /// total-order position `limit` bound.
    fn section(&self, at: usize, limit: usize) -> Section {
        let edge = self.edge_order[at];
        Section {
            edge,
            positions: self.edge_vertices[edge]
                .iter()
                .map(|&v| self.pos[v])
                .take_while(|&p| p < limit)
                .collect(),
        }
    }

    /// Compiles `u`'s subtree under the pushed filters `pushed` (QP
    /// positions of the enclosing case-a anchors); returns its arena index
    /// and how many buffer levels it needs.
    fn node(&mut self, u: &QpNode, pushed: &[usize]) -> (usize, usize) {
        let h = self.h;
        let k = u.label;
        let mut univ = u.univ.clone();
        univ.sort_by_key(|&v| self.pos[v]);
        let start = self.pos[*univ.first().expect("QP-tree nodes have attributes")];
        assert!(
            univ.iter()
                .enumerate()
                .all(|(i, &v)| self.pos[v] == start + i),
            "(TO1): univ(u) is consecutive in the total order"
        );
        let id = self.nodes.len();
        self.nodes.push(NodePlan {
            k,
            arity: univ.len(),
            start,
            cover_at: self.cover_len,
            kind: NodeKind::Dead,
        });
        self.cover_len += k;

        let (kind, levels) = if u.is_leaf || (u.left.is_none() && u.right.is_none()) {
            // Edges whose projection spans all of univ (at a paper-leaf:
            // all of them; at a both-children-nil node, the ones that
            // matter).
            let covering: Vec<Section> = (0..k)
                .filter(|&i| univ.iter().all(|&v| h.edge_contains(i, v)))
                .map(|i| self.section(i, start))
                .collect();
            if covering.is_empty() {
                (NodeKind::Dead, 0)
            } else {
                let filters = pushed.iter().map(|&at| self.section(at, start)).collect();
                (NodeKind::Leaf { covering, filters }, 0)
            }
        } else {
            let ek = k - 1;
            // line 15: W = U ∖ e_k, W⁻ = U ∩ e_k, each in order.
            let (wminus, w): (Vec<usize>, Vec<usize>) =
                univ.iter().partition(|&&v| h.edge_contains(ek, v));
            match (&u.left, wminus.first()) {
                (Some(lc), None) => {
                    let (left, levels) = self.node(lc, pushed);
                    (NodeKind::Pass { left }, levels)
                }
                (None, _) if !w.is_empty() => (NodeKind::Dead, 0),
                (None, None) => unreachable!("a node's universe is non-empty"),
                (lc, Some(&first)) => {
                    let wm_start = self.pos[first];
                    assert_eq!(wm_start, start + w.len(), "(TO2): W precedes W⁻");
                    let checks: Vec<CheckEdge> = (0..ek)
                        .filter_map(|i| {
                            let wm_offsets: Vec<usize> = self.edge_vertices[self.edge_order[i]]
                                .iter()
                                .filter(|v| wminus.contains(v))
                                .map(|&v| self.pos[v] - wm_start)
                                .collect();
                            (!wm_offsets.is_empty()).then(|| CheckEdge {
                                at: i,
                                section: self.section(i, wm_start),
                                wm_offsets,
                            })
                        })
                        .collect();
                    let anchor = self.section(ek, wm_start);
                    let rc_coverable = wminus
                        .iter()
                        .all(|&v| (0..ek).any(|i| h.edge_contains(i, v)));
                    let left = lc.as_deref().map(|lc| self.node(lc, pushed));
                    let right = u.right.as_deref().filter(|_| rc_coverable).map(|rc| {
                        let pushed: Vec<usize> = pushed.iter().copied().chain([ek]).collect();
                        self.node(rc, &pushed)
                    });
                    let deeper = left.map_or(0, |l| l.1).max(right.map_or(0, |r| r.1));
                    let filters: Vec<Section> = pushed
                        .iter()
                        .map(|&at| self.section(at, wm_start))
                        .collect();
                    let walk = (0..wminus.len())
                        .map(|j| {
                            let binding = checks
                                .iter()
                                .enumerate()
                                .filter(|(_, c)| c.wm_offsets.contains(&j))
                                .map(|(p, c)| (p, c.section.edge));
                            let pushed = (checks.len()..).zip(filters.iter().map(|f| f.edge));
                            binding.chain(pushed).collect()
                        })
                        .collect();
                    let split = Split {
                        left: left.map(|l| l.0),
                        right: right.map(|r| r.0),
                        wm_start,
                        anchor,
                        checks,
                        filters,
                        walk,
                    };
                    (NodeKind::Split(split), 1 + deeper)
                }
            }
        };
        self.nodes[id].kind = kind;
        (id, levels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Hypergraph {
        Hypergraph::new(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]]).unwrap()
    }

    #[test]
    fn triangle_plan_shape() {
        // Input order R, S, T gives the total order (1, 0, 2); the first
        // order giving (0, 1, 2) is R, T, S. The root anchors at S(1,2):
        // W = {0}, W⁻ = {1, 2}.
        let plan = JoinPlan::compile(&triangle());
        assert_eq!(plan.edge_order, [0, 2, 1]);
        assert_eq!(plan.order, [0, 1, 2]);
        assert_eq!((&plan.columns[..], plan.key_len), (&[0, 1, 2][..], 0));
        assert_eq!(plan.prefix, 3);
        assert_eq!(plan.edge_vertices, [[0, 1], [1, 2], [0, 2]]);
        let root = &plan.nodes[plan.root.unwrap()];
        assert_eq!((root.k, root.arity, root.start), (3, 3, 0));
        let NodeKind::Split(s) = &root.kind else {
            panic!("root splits");
        };
        assert_eq!(s.wm_start, 1);
        assert_eq!((s.anchor.edge, s.anchor.positions.len()), (1, 0));
        // R(0,1) at QP position 0 and T(0,2) at position 1 each bind
        // attribute 0 (position 0) in their section and probe one W⁻
        // attribute: 1 (offset 0), 2 (offset 1).
        let checks: Vec<_> = s
            .checks
            .iter()
            .map(|c| {
                let sec = &c.section;
                (c.at, sec.edge, &sec.positions[..], &c.wm_offsets[..])
            })
            .collect();
        assert_eq!(
            checks,
            [(0, 0, &[0][..], &[0][..]), (1, 2, &[0][..], &[1][..])]
        );
        // Nothing encloses the root, so it carries no pushed filter, and
        // each walk level is bound by the one check holding it.
        assert!(s.filters.is_empty());
        assert_eq!(s.walk, [[(0, 0)], [(1, 2)]]);
        // The left child {0} is a leaf over R and T. It lies left of the
        // root's split, so the root's anchor is not pushed into it.
        let left = &plan.nodes[s.left.unwrap()];
        assert_eq!((left.k, left.arity, left.start), (2, 1, 0));
        let NodeKind::Leaf { covering, filters } = &left.kind else {
            panic!("{{0}} lies in R and T");
        };
        let covering: Vec<_> = covering.iter().map(|c| c.edge).collect();
        assert_eq!(covering, [0, 2]);
        assert!(filters.is_empty());
        // The right child {1, 2} anchors at T: W = {1}, W⁻ = {2}. No
        // earlier edge holds 2, so it has no checks and no right child.
        let right = &plan.nodes[s.right.expect("1 ∈ R, 2 ∈ T")];
        assert_eq!((right.k, right.arity, right.start), (2, 2, 1));
        let NodeKind::Split(rs) = &right.kind else {
            panic!("the right child splits");
        };
        assert_eq!((rs.anchor.edge, rs.wm_start), (2, 2));
        assert!(rs.checks.is_empty() && rs.right.is_none() && rs.left.is_some());
        // The root's anchor S(1,2) is pushed into its right subtree. At
        // the split it is a section under t_W = {1} (position 1), which the
        // case-b walk over T's {2} level intersects with.
        let sections = |fs: &[Section]| -> Vec<(usize, Vec<usize>)> {
            fs.iter().map(|f| (f.edge, f.positions.clone())).collect()
        };
        assert_eq!(sections(&rs.filters), [(1, vec![1])]);
        assert_eq!(rs.walk, [[(0, 1)]]);
        // Its left child {1} is a leaf over R; the filter is S's root: a
        // candidate must start some row of S.
        let NodeKind::Leaf { covering, filters } = &plan.nodes[rs.left.unwrap()].kind else {
            panic!("{{1}} lies in R");
        };
        assert_eq!(covering.iter().map(|c| c.edge).collect::<Vec<_>>(), [0]);
        assert_eq!(sections(filters), [(1, vec![])]);
        assert_eq!(plan.levels, 2);
    }

    #[test]
    fn four_cycle_starts_like_the_schema() {
        // None of the 24 edge orders of A0—A1—A2—A3—A0 yields (0, 1, 2, 3).
        // Input order gives (1, 2, 0, 3); the first order whose total order
        // starts (0, 1) is (C0, C3, C1, C2), giving (0, 1, 3, 2).
        let h = Hypergraph::new(4, vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![0, 3]]).unwrap();
        let plan = JoinPlan::compile(&h);
        assert_eq!(plan.edge_order, [0, 3, 1, 2]);
        assert_eq!(plan.order, [0, 1, 3, 2]);
        // Rows ascend in (0, 1); attribute 2 sits after 3, so the key runs
        // through it.
        assert_eq!(plan.prefix, 2);
        assert_eq!((&plan.columns[..], plan.key_len), (&[0, 1, 3, 2][..], 3));
    }

    #[test]
    fn the_star_re_sorts_by_its_center_alone() {
        // R(0,1) S(0,2) T(0,3): the center is bound after the leaves under
        // every edge order, so input order stays.
        let h = Hypergraph::new(4, vec![vec![0, 1], vec![0, 2], vec![0, 3]]).unwrap();
        let plan = JoinPlan::compile(&h);
        assert_eq!(plan.edge_order, [0, 1, 2]);
        assert_eq!(plan.order, [1, 2, 0, 3]);
        assert_eq!((plan.prefix, plan.key_len), (0, 1));
    }

    #[test]
    fn a_prefix_order_is_taken_only_without_a_schema_order() {
        // The path R(0,1) S(1,2) has a schema order (R, S); its first
        // order is taken even though (S, R) is tried later.
        let path = Hypergraph::new(3, vec![vec![1, 2], vec![0, 1]]).unwrap();
        let plan = JoinPlan::compile(&path);
        assert_eq!((&plan.order[..], plan.prefix), (&[0, 1, 2][..], 3));
        // The 2-star R(0,1) S(0,2) binds its center last under both
        // orders: neither starts like the schema, input order stays.
        let two_star = Hypergraph::new(3, vec![vec![0, 1], vec![0, 2]]).unwrap();
        let plan = JoinPlan::compile(&two_star);
        assert_eq!(plan.edge_order, [0, 1]);
        assert_eq!((plan.order[0], plan.prefix), (1, 0));
    }

    #[test]
    fn point_lookup_shape_keeps_input_order() {
        // R'(0), S(0,1), T'(1): the triangle with two constants bound.
        let h = Hypergraph::new(2, vec![vec![0], vec![0, 1], vec![1]]).unwrap();
        let plan = JoinPlan::compile(&h);
        assert_eq!(plan.edge_order, [0, 1, 2]);
        assert_eq!(plan.order, [0, 1]);
    }

    #[test]
    fn only_up_to_six_edges_are_searched() {
        // The triangle with its T(0,2) repeated: input order gives
        // (1, 0, 2) at any length, and some reordering gives (0, 1, 2).
        let repeated = |m: usize| {
            let mut edges = vec![vec![0, 1], vec![1, 2]];
            edges.resize(m, vec![0, 2]);
            JoinPlan::compile(&Hypergraph::new(3, edges).unwrap())
        };
        let six = repeated(6);
        assert_eq!(six.order, [0, 1, 2]);
        assert_ne!(six.edge_order, [0, 1, 2, 3, 4, 5]);
        let seven = repeated(7);
        assert_eq!(seven.edge_order, [0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(seven.order, [1, 0, 2]);
    }

    #[test]
    fn next_permutation_walks_lexicographic_order() {
        let mut p = [0, 1, 2];
        let mut seen = vec![p.to_vec()];
        while next_permutation(&mut p) {
            seen.push(p.to_vec());
        }
        let want: [[usize; 3]; 6] = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        assert_eq!(seen, want);
        assert_eq!(p, [2, 1, 0], "the last permutation is left alone");
        assert!(!next_permutation(&mut []));
    }

    #[test]
    fn covers_are_truncated_left_and_rescaled_right() {
        let plan = JoinPlan::compile(&triangle());
        let table = plan.resolve_covers(&[0.5, 0.5, 0.5]);
        let root = &plan.nodes[plan.root.unwrap()];
        let NodeKind::Split(s) = &root.kind else {
            panic!("root splits");
        };
        let of = |id: usize| &table[plan.nodes[id].cover_at..][..plan.nodes[id].k];
        assert_eq!(of(plan.root.unwrap()), [0.5, 0.5, 0.5]);
        assert_eq!(of(s.left.unwrap()), [0.5, 0.5]);
        assert_eq!(of(s.right.unwrap()), [0.5 / (1.0 - 0.5); 2]);
        // y_k = 1: case a is off, the right child's entries stay unused.
        let table = plan.resolve_covers(&[1.0, 1.0, 1.0]);
        let of = |id: usize| &table[plan.nodes[id].cover_at..][..plan.nodes[id].k];
        assert_eq!(of(s.left.unwrap()), [1.0, 1.0]);
        assert_eq!(of(s.right.unwrap()), [0.0, 0.0]);
        // x is in input order (R, S, T); the table is in QP order
        // (R, T, S), so the anchor S's weight lands last.
        let table = plan.resolve_covers(&[0.25, 0.5, 0.75]);
        let of = |id: usize| &table[plan.nodes[id].cover_at..][..plan.nodes[id].k];
        assert_eq!(of(plan.root.unwrap()), [0.25, 0.75, 0.5]);
        assert_eq!(of(s.left.unwrap()), [0.25, 0.75]);
        assert_eq!(of(s.right.unwrap()), [0.5, 1.5]);
    }

    #[test]
    fn nullary_query_has_no_nodes() {
        let h = Hypergraph::new(0, vec![vec![], vec![]]).unwrap();
        let plan = JoinPlan::compile(&h);
        assert!(plan.root.is_none() && plan.nodes.is_empty() && plan.order.is_empty());
        assert_eq!(plan.key_len, 0);
        assert_eq!(plan.edge_vertices, vec![Vec::<usize>::new(); 2]);
        assert!(plan.resolve_covers(&[1.0, 1.0]).is_empty());
    }

    #[test]
    fn uncoverable_right_child_is_not_compiled() {
        // R(0), S(0,1): anchored at S, W⁻ = {0, 1} but attribute 1 lies in
        // no earlier edge — case a would be unsound.
        let h = Hypergraph::new(2, vec![vec![0], vec![0, 1]]).unwrap();
        let plan = JoinPlan::compile(&h);
        let NodeKind::Split(s) = &plan.nodes[plan.root.unwrap()].kind else {
            panic!("root splits");
        };
        assert!(s.left.is_none() && s.right.is_none());
        assert_eq!(s.checks.len(), 1);
    }

    #[test]
    fn a_check_can_bind_non_adjacent_walk_levels() {
        // R(0,2), U(2), S(0,1,2) in input order: the total order is
        // (0, 1, 2) and the root anchors at S with W = ∅, so the case-b
        // walk binds attributes 0, 1, 2 at levels 0, 1, 2. R binds levels
        // 0 and 2 but not 1, U level 2.
        let h = Hypergraph::new(3, vec![vec![0, 2], vec![2], vec![0, 1, 2]]).unwrap();
        let plan = JoinPlan::compile(&h);
        assert_eq!(plan.edge_order, [0, 1, 2]);
        assert_eq!(plan.order, [0, 1, 2]);
        let root = &plan.nodes[plan.root.unwrap()];
        let NodeKind::Split(s) = &root.kind else {
            panic!("root splits");
        };
        assert_eq!((root.start, root.arity, s.wm_start), (0, 3, 0));
        let offsets: Vec<_> = s
            .checks
            .iter()
            .map(|c| (c.section.edge, &c.wm_offsets[..]))
            .collect();
        assert_eq!(offsets, [(0, &[0, 2][..]), (1, &[2][..])]);
    }
}
