//! The generic NPRR worst-case optimal join (paper §5, Theorem 5.1).
//!
//! Theorem 5.1's `O(mn · ∏ N_e^{x_e})` is a bound *after preprocessing*,
//! and the paper puts everything that depends on the query alone there
//! (Algorithms 3–4, Remark 5.2). The work is split the same way here:
//!
//! * **Compiled once per query** ([`PreparedQuery`] construction): the
//!   [query plan tree](qptree) (Algorithm 3) under the first edge order
//!   whose [total order](total_order()) of attributes (Algorithm 4) is the
//!   output schema, or input order when none is; one search
//!   tree per relation along it, and a `NodePlan` per QP-tree node — its
//!   `W`/`W⁻` position ranges, the anchor's and every check edge's section
//!   descent, the offsets of each check edge's attributes inside
//!   `t_{W⁻}`, whether case a is sound, a leaf's covering edges.
//! * **Resolved once per run** (one `run_shard` call): every node's cover
//!   vector — left children inherit a prefix, right children the prefix
//!   rescaled by `1 / (1 − y_k)` — and a set of flat row buffers, one per
//!   tree level, reused by every `Recursive-Join` call of the run.
//! * **Per partial tuple**: [`Recursive-Join`](self) itself (Procedure
//!   5). Rows live back to back in arity-strided [`RowBuf`]s; `t_S`,
//!   `t_W` and case b's `t_{W⁻}` are a stack of values indexed by
//!   total-order position;
//!   sections are descents along precomputed positions. No step
//!   allocates per row. The two membership loops use the order their
//!   tuples arrive in: case a's filter (lines 22–25) resumes the
//!   previous row's anchor descent where the two rows part
//!   (`SortedProbe`), and case b's scan (lines 27–29) walks the
//!   anchor one `W⁻` level at a time, probing each check edge at the
//!   level that binds it, so a value one check lacks prunes its whole
//!   subtree (`AnchorScan`).
//!
//! The per-tuple **size check** (Procedure 5, line 21) is the algorithmic
//! heart: for each partial tuple it compares the *estimated* output of the
//! remaining sub-join (a product of fractional powers of section sizes,
//! computed here in log-space) against the anchor relation's section size,
//! and either recurses (case a) or scans the anchor (case b).

mod plan;
mod prepared;
pub mod qptree;
pub mod total_order;

pub use prepared::PreparedQuery;

use crate::query::{JoinQuery, QueryError};
use crate::{JoinOutput, JoinStats};
use plan::{CheckEdge, JoinPlan, NodeKind, NodePlan, Section, Split};
use wcoj_storage::index::SearchTree;
use wcoj_storage::{FlatIndex, RowBuf, Value};

/// Evaluates `q` with the NPRR algorithm under fractional cover `x` (one
/// weight per relation, in input order) over one [`FlatIndex`] per
/// relation: `PreparedQuery::from_query(q).evaluate(Some(x))`. Every
/// parallel and served path must reproduce its rows *and* their order.
///
/// # Errors
/// [`QueryError::BadCover`] when `x` has the wrong length or is not a
/// fractional edge cover of `q`.
pub fn join_nprr(q: &JoinQuery, x: &[f64]) -> Result<JoinOutput, QueryError> {
    PreparedQuery::<FlatIndex>::from_query(q.clone())?.evaluate(Some(x))
}

/// Inclusive value range restricting the attribute at total-order
/// position 1 *inside* one root shard — the handle of **intra-value
/// parallelism**. For a fixed root binding, the case-b scan of the anchor
/// relation's section enumerates the level-1 values in sorted order; two
/// sub-shards with disjoint anchor ranges enumerate disjoint slices of
/// that scan (and of every later scan binding position 1), so they
/// produce disjoint row sets whose union is exactly the parent shard's —
/// the same §5.2 step-2a argument as root sharding, one level down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnchorRange {
    /// Smallest admitted value for the second attribute in the total order.
    pub lo: Value,
    /// Largest admitted value (inclusive).
    pub hi: Value,
}

impl AnchorRange {
    /// Does `v` fall inside this range?
    #[inline]
    #[must_use]
    pub fn contains(&self, v: Value) -> bool {
        self.lo <= v && v <= self.hi
    }
}

/// Inclusive value range restricting the attribute at total-order
/// position 0 — the handle the `wcoj-service` pool uses to carve
/// `Recursive-Join` into independent sub-joins. §5.2 (step 2a) is the
/// correctness argument: the trie subtree under each level-0 branch *is*
/// the search tree of that section, so runs restricted to disjoint root
/// ranges touch disjoint sets of output rows and need no coordination.
///
/// A shard may additionally carry an [`AnchorRange`] restricting the
/// attribute at total-order position 1: a *sub-shard* splitting the work
/// inside one heavy root value across workers. Sub-shards only make
/// sense for queries whose total order has ≥ 2 attributes — the planner
/// (`wcoj-exec`) enforces that; an anchored shard on a shorter order
/// would re-enumerate the full result in every sub-shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RootShard {
    /// Smallest admitted value for the first attribute in the total order.
    pub lo: Value,
    /// Largest admitted value (inclusive).
    pub hi: Value,
    /// Optional sub-range over the attribute at total-order position 1
    /// (intra-value parallelism for heavy root values).
    pub anchor: Option<AnchorRange>,
}

impl RootShard {
    /// An unanchored shard covering `[lo, hi]` of the root attribute.
    #[inline]
    #[must_use]
    pub fn range(lo: Value, hi: Value) -> RootShard {
        RootShard {
            lo,
            hi,
            anchor: None,
        }
    }

    /// Does `v` fall inside this shard's root range?
    #[inline]
    #[must_use]
    pub fn contains(&self, v: Value) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Does `v` fall inside this shard's anchor range (trivially true for
    /// unanchored shards)?
    #[inline]
    #[must_use]
    pub fn anchor_contains(&self, v: Value) -> bool {
        self.anchor.is_none_or(|a| a.contains(v))
    }
}

/// An optional inclusive value interval restricting one scan level.
type LevelRange = Option<(Value, Value)>;

/// (ST3) restricted to per-level value ranges: visits each length-`extra`
/// extension of `node` whose level-0 value lies in `level0` and whose
/// level-1 value lies in `level1` (either filter may be absent), pruning
/// the descent at the filtered levels so out-of-range subtrees are never
/// walked (a per-tuple filter would make every shard pay for the whole
/// enumeration).
fn for_each_extension_filtered<S: SearchTree>(
    trie: &S,
    node: S::Node,
    extra: usize,
    level0: LevelRange,
    level1: LevelRange,
    mut f: impl FnMut(&[Value]),
) {
    if level0.is_none() && level1.is_none() {
        trie.for_each_extension(node, extra, f);
        return;
    }
    debug_assert!(extra >= 1);
    // Borrow the backend's contiguous child slice when it has one; only
    // copy the level out for backends without a flat layout.
    let children_owned;
    let children: &[Value] = match trie.child_slice(node) {
        Some(s) => s,
        None => {
            children_owned = trie.child_values(node);
            &children_owned
        }
    };
    let (lo0, hi0) = level0.unwrap_or((Value(u64::MIN), Value(u64::MAX)));
    let lo = children.partition_point(|&v| v < lo0);
    let hi = children.partition_point(|&v| v <= hi0);
    let mut buf: Vec<Value> = Vec::with_capacity(extra);
    for &v in &children[lo..hi] {
        buf.clear();
        buf.push(v);
        if extra == 1 {
            f(&buf);
            continue;
        }
        let child = trie.descend(node, v).expect("listed child exists");
        let Some((lo1, hi1)) = level1 else {
            trie.for_each_extension(child, extra - 1, |rest| {
                buf.truncate(1);
                buf.extend_from_slice(rest);
                f(&buf);
            });
            continue;
        };
        let grand_owned;
        let grand: &[Value] = match trie.child_slice(child) {
            Some(s) => s,
            None => {
                grand_owned = trie.child_values(child);
                &grand_owned
            }
        };
        let l1 = grand.partition_point(|&w| w < lo1);
        let h1 = grand.partition_point(|&w| w <= hi1);
        for &w in &grand[l1..h1] {
            buf.truncate(1);
            buf.push(w);
            if extra == 2 {
                f(&buf);
                continue;
            }
            let gchild = trie.descend(child, w).expect("listed child exists");
            trie.for_each_extension(gchild, extra - 2, |rest| {
                buf.truncate(2);
                buf.extend_from_slice(rest);
                f(&buf);
            });
        }
    }
}

/// Runs `Recursive-Join` over a compiled plan, restricted to `shard` when
/// given. Returns the rows over the total order and the run's statistics
/// (`stats` with the counters filled in).
pub(crate) fn run_plan<S: SearchTree>(
    plan: &JoinPlan,
    tries: &[S],
    x: &[f64],
    shard: Option<RootShard>,
    stats: JoinStats,
) -> (RowBuf, JoinStats) {
    let mut out = RowBuf::new(plan.order.len());
    let Some(root) = plan.root else {
        // Nullary query: a single empty row (the join of non-empty
        // nullary relations), owned by the unrestricted/first shard.
        if shard.is_none_or(|s| s.contains(Value(0)) && s.anchor_contains(Value(0))) {
            out.push_row(&[]);
        }
        return (out, stats);
    };
    let mut engine = Engine {
        plan,
        tries,
        covers: plan.resolve_covers(x),
        bound: vec![Value(0); plan.order.len()],
        leaf_nodes: Vec::new(),
        shard,
        stats,
    };
    let mut levels: Vec<Level<S::Node>> = (0..plan.levels).map(|_| Level::default()).collect();
    engine.recursive_join(root, &mut levels, &mut out);
    (out, engine.stats)
}

/// The buffers one nesting level of [`NodeKind::Split`] nodes works in.
/// At most one node per level is active at a time, so a run allocates one
/// set per level and every call at that level reuses it.
struct Level<N> {
    /// `L`: the left child's rows (`t_W` candidates).
    left: RowBuf,
    /// Case a: the right child's rows (`t_{W⁻}` candidates).
    right: RowBuf,
    /// The check edges' section nodes under the current `t_W`.
    checks: Vec<Option<N>>,
    /// Case a: the anchor descent of the last probed row (`SortedProbe`).
    path: Vec<N>,
    /// Case b: the check edges' nodes at each level of the anchor walk
    /// (`AnchorScan`), one row of `checks.len()` per level.
    walk: Vec<N>,
}

impl<N> Default for Level<N> {
    fn default() -> Self {
        Level {
            left: RowBuf::default(),
            right: RowBuf::default(),
            checks: Vec::new(),
            path: Vec::new(),
            walk: Vec::new(),
        }
    }
}

/// Case a's membership filter (Procedure 5, lines 22–25) over a run of
/// probes: each probe resumes the previous one's descent at the longest
/// prefix the two share, instead of descending from the anchor again.
/// Correct for probes in any order; probes in sorted order, which is how
/// the right child emits them, share long prefixes and make it cheap.
struct SortedProbe<'p, N> {
    /// `path[d]` is the node under the first `d` values of `prev`, for
    /// `d ≤ valid`; `path[0]` is the anchor.
    path: &'p mut [N],
    valid: usize,
    prev: Option<&'p [Value]>,
}

impl<'p, N: Copy> SortedProbe<'p, N> {
    fn new(buf: &'p mut Vec<N>, anchor: N, len: usize) -> Self {
        buf.clear();
        buf.resize(len + 1, anchor);
        SortedProbe {
            path: buf,
            valid: 0,
            prev: None,
        }
    }

    /// Is `z` a full extension of the anchor?
    fn contains<S: SearchTree<Node = N>>(&mut self, trie: &S, z: &'p [Value]) -> bool {
        let shared = self
            .prev
            .map_or(0, |p| p.iter().zip(z).take_while(|(a, b)| a == b).count());
        let mut d = self.valid.min(shared);
        while let Some(&v) = z.get(d) {
            let Some(n) = trie.descend(self.path[d], v) else {
                break;
            };
            d += 1;
            self.path[d] = n;
        }
        self.valid = d;
        self.prev = Some(z);
        d == z.len()
    }
}

/// Case b's scan (Procedure 5, lines 27–29): walks the anchor section one
/// level of `W⁻` at a time, and at each level descends exactly the check
/// edges that bind that attribute. A value some check lacks prunes its
/// whole subtree, so a mismatch on `W⁻`'s first attribute costs one probe,
/// not one per completion below it.
struct AnchorScan<'a, S: SearchTree> {
    tries: &'a [S],
    /// The anchor `e_k`'s search tree.
    anchor: &'a S,
    checks: &'a [CheckEdge],
    /// The shard's value ranges for the walk's levels 0 and 1
    /// ([`Engine::scan_filters`]).
    filters: [LevelRange; 2],
    /// Where `t_{W⁻}` starts in the output row.
    wm_at: usize,
    /// `|W⁻|`: the walk's depth.
    wm_len: usize,
}

impl<S: SearchTree> AnchorScan<'_, S> {
    /// Visits the children of `node` (the anchor's node at walk level
    /// `j`). `nodes[..checks.len()]` holds every check's node at level
    /// `j`; the rows after it are filled for the levels below. `row` is
    /// `t_W` followed by the `t_{W⁻}` being built; each complete row that
    /// passes every check goes to `out`.
    fn level(
        &self,
        j: usize,
        node: S::Node,
        nodes: &mut [S::Node],
        row: &mut [Value],
        out: &mut RowBuf,
    ) {
        let (here, next) = nodes.split_at_mut(self.checks.len());
        // Checks that do not bind level j carry their node forward.
        next[..here.len()].copy_from_slice(here);
        let range = self.filters.get(j).copied().flatten();
        let mut visit = |v: Value| {
            for (c, check) in self.checks.iter().enumerate() {
                if check.wm_offsets.contains(&j) {
                    match self.tries[check.section.edge].descend(here[c], v) {
                        Some(n) => next[c] = n,
                        None => return,
                    }
                }
            }
            row[self.wm_at + j] = v;
            if j + 1 == self.wm_len {
                out.push_row(row);
            } else {
                let child = self.anchor.descend(node, v).expect("listed child exists");
                self.level(j + 1, child, next, row, out);
            }
        };
        match self.anchor.child_slice(node) {
            Some(children) => {
                let (lo, hi) = range.map_or((0, children.len()), |(lo, hi)| {
                    (
                        children.partition_point(|&v| v < lo),
                        children.partition_point(|&v| v <= hi),
                    )
                });
                children[lo..hi].iter().for_each(|&v| visit(v));
            }
            // A merged node without a contiguous level: list it without
            // copying it out.
            None => self.anchor.for_each_extension(node, 1, |t| {
                if range.is_none_or(|(lo, hi)| lo <= t[0] && t[0] <= hi) {
                    visit(t[0]);
                }
            }),
        }
    }
}

struct Engine<'a, S: SearchTree> {
    plan: &'a JoinPlan,
    tries: &'a [S],
    /// Every node's cover vector ([`JoinPlan::resolve_covers`]).
    covers: Vec<f64>,
    /// The current partial assignment, indexed by total-order position:
    /// `t_S` below the active node's `start`, then its `t_W`, then (in a
    /// case-b scan) the `t_{W⁻}` being built.
    bound: Vec<Value>,
    /// Scratch for [`Engine::leaf_join`]'s section nodes.
    leaf_nodes: Vec<S::Node>,
    /// When set, only tuples whose total-order-position-0 value lies in
    /// this range are enumerated (partition-parallel execution).
    shard: Option<RootShard>,
    stats: JoinStats,
}

impl<S: SearchTree> Engine<'_, S> {
    /// The `(level-0, level-1)` value-range filters a scan must honour,
    /// given the total-order position `start` of its first level and how
    /// many consecutive positions it binds. Partition-parallel runs
    /// restrict the attribute at position 0 to the shard's root range and
    /// (for anchored sub-shards) the attribute at position 1 to the
    /// anchor range; every attribute is bound by exactly one scan per
    /// enumeration path, so pruning at the binding scan restricts the run
    /// to exactly the shard's slice of the output. A scan over ≥ 2 levels
    /// starting at position 0 binds position 1 at its level 1; position 1
    /// not bound that way is bound by a scan starting there, filtered at
    /// its level 0.
    fn scan_filters(&self, start: usize, levels: usize) -> (LevelRange, LevelRange) {
        let Some(shard) = self.shard else {
            return (None, None);
        };
        let anchor = shard.anchor.map(|a| (a.lo, a.hi));
        match start {
            0 => {
                let level1 = if levels >= 2 { anchor } else { None };
                (Some((shard.lo, shard.hi)), level1)
            }
            1 => (anchor, None),
            _ => (None, None),
        }
    }

    /// The paper's `R_e[t_{S∩e}]`: the node of `e`'s trie under the
    /// bound prefix. `None` when the prefix is absent from the relation
    /// (the section is empty).
    fn section(&self, s: &Section) -> Option<S::Node> {
        let trie = &self.tries[s.edge];
        s.positions
            .iter()
            .try_fold(trie.root(), |node, &p| trie.descend(node, self.bound[p]))
    }

    /// Procedure 5 at plan node `id`: fills `out` with the node's rows
    /// over `univ(u)` in total-order sequence. `levels` are the buffer
    /// sets for this node's depth and below.
    fn recursive_join(&mut self, id: usize, levels: &mut [Level<S::Node>], out: &mut RowBuf) {
        let plan = self.plan;
        let node = &plan.nodes[id];
        out.reset(node.arity);
        match &node.kind {
            NodeKind::Leaf { covering } => self.leaf_join(node, covering, out),
            NodeKind::Pass { left } => {
                self.recursive_join(*left, levels, out);
                self.stats.intermediate_tuples += out.len() as u64;
            }
            NodeKind::Split(split) => self.split_join(node, split, levels, out),
            NodeKind::Dead => debug_assert!(false, "unreachable under a valid cover"),
        }
    }

    /// Procedure 5, lines 10–29.
    fn split_join(
        &mut self,
        node: &NodePlan,
        split: &Split,
        levels: &mut [Level<S::Node>],
        out: &mut RowBuf,
    ) {
        let (level, deeper) = levels
            .split_first_mut()
            .expect("the plan counts one level per nested split");
        let plan = self.plan;
        let tries = self.tries;

        // lines 10–14: recurse left (or L = {t_S}).
        match split.left {
            Some(lc) => self.recursive_join(lc, deeper, &mut level.left),
            None => {
                level.left.reset(0);
                level.left.push_row(&[]);
            }
        }
        self.stats.intermediate_tuples += level.left.len() as u64;

        // The anchor e_k: QP position k − 1 in the cover tables.
        let ek = node.k - 1;
        let trie_k = &tries[split.anchor.edge];
        let wm_len = node.start + node.arity - split.wm_start;
        // anchor section size c_k = |π_{W⁻}(R_{e_k}[t_{S∩e_k}])|.
        let anchor = self.section(&split.anchor);
        let c_k = anchor.map_or(0, |n| trie_k.distinct_count(n, wm_len));
        let y = node.cover_at;
        let y_k = self.covers[y + ek];
        // The exponents y_i / (1 − y_k) are the right child's cover.
        let exponents = split
            .right
            .filter(|_| y_k < 1.0)
            .map(|rc| plan.nodes[rc].cover_at);
        // Partition-parallel runs: when the anchor scan binds the first
        // (second) attribute of the total order, descend only the
        // shard's root (anchor) range.
        let (f0, f1) = self.scan_filters(split.wm_start, wm_len);

        for l in 0..level.left.len() {
            // bind t_W
            let t_w = level.left.row(l);
            self.bound[node.start..split.wm_start].copy_from_slice(t_w);
            level.checks.clear();
            level
                .checks
                .extend(split.checks.iter().map(|c| self.section(&c.section)));

            // line 19/21: choose case.
            let mut case_a = false;
            if let Some(exp) = exponents {
                // lhs = ∏_{i<k} c_i^{y_i/(1−y_k)} in log space.
                let mut lhs_log = 0.0f64;
                let mut lhs_zero = false;
                for (check, section) in split.checks.iter().zip(&level.checks) {
                    let i = check.at;
                    if self.covers[y + i] <= 0.0 {
                        continue; // 0^0 = 1 convention
                    }
                    let c_i = section.map_or(0, |n| {
                        tries[check.section.edge].distinct_count(n, check.wm_offsets.len())
                    });
                    if c_i == 0 {
                        lhs_zero = true;
                        break;
                    }
                    lhs_log += self.covers[exp + i] * (c_i as f64).ln();
                }
                // An empty anchor section goes to case b, which scans
                // nothing: both correct and free.
                case_a = c_k > 0 && (lhs_zero || lhs_log < (c_k as f64).ln());
            }

            if case_a {
                self.stats.case_a += 1;
                // lines 22–25: recurse right with the scaled cover, filter
                // against the anchor.
                let rc = split.right.expect("case a requires rc");
                self.recursive_join(rc, deeper, &mut level.right);
                self.stats.intermediate_tuples += level.right.len() as u64;
                if let Some(anchor) = anchor {
                    // z is over W⁻ in order = e_k's next attributes.
                    let mut probe = SortedProbe::new(&mut level.path, anchor, wm_len);
                    for z in level.right.rows() {
                        if probe.contains(trie_k, z) {
                            out.push_concat(t_w, z);
                        }
                    }
                }
            } else {
                self.stats.case_b += 1;
                // lines 27–29: scan the anchor's section, probe the others
                // (an edge whose section is empty admits nothing).
                let Some(anchor) = anchor else { continue };
                if level.checks.iter().any(Option::is_none) {
                    continue;
                }
                // One row of check nodes per level of the walk; row 0 is
                // the sections.
                level.walk.clear();
                level.walk.extend(level.checks.iter().flatten());
                for _ in 0..wm_len {
                    level.walk.extend_from_within(..split.checks.len());
                }
                let scan = AnchorScan {
                    tries,
                    anchor: trie_k,
                    checks: &split.checks,
                    filters: [f0, f1],
                    wm_at: split.wm_start - node.start,
                    wm_len,
                };
                let row = &mut self.bound[node.start..node.start + node.arity];
                scan.level(0, anchor, &mut level.walk, row, out);
            }
        }
    }

    /// Leaf case (Procedure 5, lines 3–9): `univ ⊆ e_i` for every
    /// covering edge: intersect the section-projections, scanning the
    /// smallest.
    fn leaf_join(&mut self, node: &NodePlan, covering: &[Section], out: &mut RowBuf) {
        let tries = self.tries;
        let mut sections = std::mem::take(&mut self.leaf_nodes);
        sections.clear();
        sections.extend(covering.iter().map_while(|s| self.section(s)));
        // Some section empty → empty join.
        if sections.len() == covering.len() {
            // argmin section size (the first of equals)
            let j = (0..sections.len())
                .min_by_key(|&i| tries[covering[i].edge].distinct_count(sections[i], node.arity))
                .expect("a leaf has a covering edge");
            // Partition-parallel runs: when this leaf binds the first
            // (second) attribute of the total order, descend only the
            // shard's root (anchor) range.
            let (f0, f1) = self.scan_filters(node.start, node.arity);
            let mut scanned = 0u64;
            let scan = &tries[covering[j].edge];
            for_each_extension_filtered(scan, sections[j], node.arity, f0, f1, |cand| {
                scanned += 1;
                let ok = covering
                    .iter()
                    .zip(&sections)
                    .enumerate()
                    .all(|(at, (s, &n))| at == j || tries[s.edge].descend_tuple(n, cand).is_some());
                if ok {
                    out.push_row(cand);
                }
            });
            self.stats.intermediate_tuples += scanned;
        }
        self.leaf_nodes = sections;
    }
}
