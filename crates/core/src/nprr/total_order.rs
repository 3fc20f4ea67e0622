//! The **total order** of attributes (paper Algorithm 4) and its two
//! correctness properties (Proposition 5.5):
//!
//! * **(TO1)** for every QP-tree node `u`, the members of `univ(u)` are
//!   consecutive in the total order;
//! * **(TO2)** for every internal node `u` with label `k`, if `S` is the
//!   set of attributes preceding `univ(u)`, then `S ∪ univ(lc(u))` is
//!   exactly the set of attributes preceding `univ(rc(u))`.
//!
//! Search trees built along this order make every section the paper needs
//! a *prefix descent* (see `wcoj_storage::FlatIndex`).

use super::qptree::QpNode;

/// Computes the total order by Algorithm 4's `print-attribs` walk.
///
/// Deviating from the paper only where it is silent: a node whose children
/// are *both* nil (possible when only the anchor edge meets the universe)
/// prints its own universe, like a leaf.
#[must_use]
pub fn total_order(root: &QpNode) -> Vec<usize> {
    let mut out = Vec::new();
    print_attribs(root, &mut out);
    out
}

fn print_attribs(u: &QpNode, out: &mut Vec<usize>) {
    match (&u.left, &u.right) {
        _ if u.is_leaf => out.extend(u.univ.iter().copied()),
        (None, None) => out.extend(u.univ.iter().copied()),
        (None, Some(rc)) => {
            print_attribs(rc, out);
            // The paper assumes lc = nil only when univ(u) ⊆ e_k (so
            // univ(rc) = univ(u)); lc can also die because no remaining
            // edge meets univ(u) ∖ e_k — emit those attributes here so the
            // order stays a permutation. (Such nodes are unreachable at
            // evaluation time under a valid cover.)
            out.extend(u.univ.iter().copied().filter(|v| !rc.univ.contains(v)));
        }
        (Some(lc), None) => {
            print_attribs(lc, out);
            // univ(u) ∖ univ(lc) in arbitrary (ascending) order.
            out.extend(u.univ.iter().copied().filter(|v| !lc.univ.contains(v)));
        }
        (Some(lc), Some(rc)) => {
            print_attribs(lc, out);
            print_attribs(rc, out);
        }
    }
}

/// Position of each vertex in the order: `pos[v] = rank`.
///
/// # Panics
/// Panics if `order` mentions a vertex ≥ `n`.
#[must_use]
pub fn positions(order: &[usize], n: usize) -> Vec<usize> {
    let mut pos = vec![usize::MAX; n];
    for (i, &v) in order.iter().enumerate() {
        pos[v] = i;
    }
    pos
}

/// Checks **(TO1)**: every node's universe is a consecutive block.
#[must_use]
pub fn check_to1(root: &QpNode, order: &[usize]) -> bool {
    let pos = positions(order, order.iter().copied().max().map_or(0, |m| m + 1));
    let mut ok = true;
    visit(root, &mut |u: &QpNode| {
        let mut ps: Vec<usize> = u.univ.iter().map(|&v| pos[v]).collect();
        ps.sort_unstable();
        if !ps.is_empty() && ps[ps.len() - 1] - ps[0] + 1 != ps.len() {
            ok = false;
        }
    });
    ok
}

/// Checks **(TO2)** at every internal node with two children.
#[must_use]
pub fn check_to2(root: &QpNode, order: &[usize]) -> bool {
    let n = order.iter().copied().max().map_or(0, |m| m + 1);
    let pos = positions(order, n);
    let mut ok = true;
    visit(root, &mut |u: &QpNode| {
        let (Some(lc), Some(rc)) = (&u.left, &u.right) else {
            return;
        };
        // S = attrs preceding univ(u); first position of univ(u):
        let u_start = u.univ.iter().map(|&v| pos[v]).min().expect("nonempty univ");
        let rc_start = rc
            .univ
            .iter()
            .map(|&v| pos[v])
            .min()
            .expect("nonempty univ");
        // Preceding rc must be exactly S ∪ univ(lc):
        let mut expect: Vec<usize> = order[..u_start].to_vec();
        expect.extend(lc.univ.iter().copied());
        expect.sort_unstable();
        let mut actual: Vec<usize> = order[..rc_start].to_vec();
        actual.sort_unstable();
        if expect != actual {
            ok = false;
        }
    });
    ok
}

fn visit(u: &QpNode, f: &mut impl FnMut(&QpNode)) {
    f(u);
    if let Some(l) = &u.left {
        visit(l, f);
    }
    if let Some(r) = &u.right {
        visit(r, f);
    }
}

#[cfg(test)]
mod tests {
    use super::super::qptree::build_qp_tree;
    use super::*;
    use wcoj_hypergraph::Hypergraph;

    fn figure2() -> Hypergraph {
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
    fn figure2_total_order_matches_paper() {
        // §5.2: "the total order is 1, 4, 2, 5, 3, 6" (1-based).
        let t = build_qp_tree(&figure2()).unwrap();
        assert_eq!(total_order(&t), vec![0, 3, 1, 4, 2, 5]);
    }

    #[test]
    fn order_is_a_permutation() {
        let t = build_qp_tree(&figure2()).unwrap();
        let mut o = total_order(&t);
        o.sort_unstable();
        assert_eq!(o, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn to1_to2_hold_on_figure2() {
        let t = build_qp_tree(&figure2()).unwrap();
        let o = total_order(&t);
        assert!(check_to1(&t, &o));
        assert!(check_to2(&t, &o));
    }

    #[test]
    fn to1_to2_hold_on_assorted_shapes() {
        let shapes = [
            Hypergraph::new(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]]).unwrap(),
            Hypergraph::new(
                4,
                vec![vec![1, 2, 3], vec![0, 2, 3], vec![0, 1, 3], vec![0, 1, 2]],
            )
            .unwrap(),
            Hypergraph::new(
                5,
                vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4], vec![0, 4]],
            )
            .unwrap(),
            Hypergraph::new(4, vec![vec![0, 1, 2, 3], vec![0, 1], vec![2, 3]]).unwrap(),
            Hypergraph::new(2, vec![vec![0], vec![1], vec![0, 1]]).unwrap(),
        ];
        for (i, h) in shapes.iter().enumerate() {
            let t = build_qp_tree(h).unwrap();
            let o = total_order(&t);
            let mut sorted = o.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), o.len(), "shape {i}: order has duplicates");
            assert!(check_to1(&t, &o), "shape {i}: TO1 fails");
            assert!(check_to2(&t, &o), "shape {i}: TO2 fails");
        }
    }

    #[test]
    fn positions_inverse_of_order() {
        let order = vec![2, 0, 1];
        let pos = positions(&order, 3);
        assert_eq!(pos, vec![1, 2, 0]);
    }
}
