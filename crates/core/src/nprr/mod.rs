//! The generic NPRR worst-case optimal join (paper §5, Theorem 5.1).
//!
//! Theorem 5.1's `O(mn · ∏ N_e^{x_e})` is a bound *after preprocessing*,
//! and the paper puts everything that depends on the query alone there
//! (Algorithms 3–4, Remark 5.2). The work is split the same way here:
//!
//! * **Compiled once per query** ([`PreparedQuery`] construction): the
//!   [query plan tree](qptree) (Algorithm 3) under the first edge order
//!   whose [total order](total_order) of attributes (Algorithm 4) is the
//!   output schema, or input order when none is; one search
//!   tree per relation along it, and a `NodePlan` per QP-tree node — its
//!   `W`/`W⁻` position ranges, the anchor's and every check edge's section
//!   descent, the offsets of each check edge's attributes inside
//!   `t_{W⁻}`, whether case a is sound, a leaf's covering edges, and the
//!   **pushed filters**: the anchor of every enclosing split whose right
//!   subtree holds the node.
//! * **Resolved once per run** (one `run_shard` call): every node's cover
//!   vector — left children inherit a prefix, right children the prefix
//!   rescaled by `1 / (1 − y_k)` — and a set of flat row buffers, one per
//!   tree level, reused by every `Recursive-Join` call of the run.
//! * **Per partial tuple**: [`Recursive-Join`](self) itself (Procedure
//!   5). Rows live back to back in arity-strided [`RowBuf`]s; `t_S`,
//!   `t_W` and case b's `t_{W⁻}` are a stack of values indexed by
//!   total-order position;
//!   sections are descents along precomputed positions, and a split's
//!   check and filter sections resume from the previous `t_W`'s descent.
//!   No step allocates per row.
//!
//! Procedure 5's case a builds the right child in full and then keeps the
//! rows the anchor `e_k` contains (lines 22–25). Here lines 22–25 run
//! *inside* the right child: every node under `rc(u)` has
//! `univ ⊆ W⁻ ⊆ e_k`, so the plan hands `e_k` down to each of them as a
//! filter-only edge — an extra probe on a split's walk, an extra section
//! on a leaf — and each node drops the rows `e_k` lacks while it builds
//! them. Filters only shrink a node's output and cost at most one descent
//! per candidate, so Theorem 5.1's per-node accounting holds as before;
//! the line-21 size check and a leaf's choice of section to scan never
//! read them. Case a then appends the right child's rows as they come.
//!
//! Case b's scan (lines 27–29) walks the anchor one `W⁻` level at a time
//! as a **leapfrog** intersection (Veldhuizen's Leapfrog Triejoin, the
//! Generic Join loop of Ngo–Ré–Rudra): at each level the anchor's
//! children meet those of every check edge binding the level and of every
//! filter, each side seeking forward from where it stood, so a value one
//! side lacks lets the others skip to its next one, and a value some
//! check lacks prunes its whole subtree (`AnchorScan`).
//!
//! The engine opens a node's children as the backend's child scan
//! ([`SearchTree::children`]), which lends its stored level as a borrowed
//! sorted slice ([`SearchTree::labels`]). Each walk level is one k-way
//! leapfrog over the anchor's and every binding probe's slices
//! ([`leapfrog`]): rows are pushed straight from the last level, and a
//! match's children are taken by offset ([`SearchTree::child_at`]). When a
//! level has two sides (the anchor and one probe) whose slices are
//! within a factor of 8 of each other in length, the kernel merges them
//! instead of galloping (Demaine–López-Ortiz–Munro adaptive
//! intersection), at most `(1 + 8)·min` steps, so Theorem 5.1's charge
//! of one lookup per checking edge per candidate holds up to a constant
//! factor. The rows, their order and [`JoinStats`] do not depend on
//! which path ran. A relation with live insert/delete buffers reaches the
//! engine as the `FlatIndex` over its merged view, so every level of
//! every served relation takes this one path. A split's probes and a shard-filtered
//! leaf scan seek forward in their scans ([`SearchTree::seek`]).
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
use plan::{JoinPlan, NodeKind, NodePlan, Section, Split};
use std::ops::RangeInclusive;
use wcoj_storage::gallop::{leapfrog, Lane};
use wcoj_storage::index::{for_each_child, with_scratch, SearchTree, ALL_LABELS};
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

/// The labels a [`LevelRange`] admits.
fn labels(range: LevelRange) -> RangeInclusive<Value> {
    range.map_or(ALL_LABELS, |(lo, hi)| lo..=hi)
}

/// (ST3) restricted to per-level value ranges: visits each length-`extra`
/// extension of `node` whose level-0 value lies in `level0` and whose
/// level-1 value lies in `level1` (either filter may be absent), pruning
/// the descent at the filtered levels so out-of-range subtrees are never
/// walked (a per-tuple filter would make every shard pay for the whole
/// enumeration). The tuple is built in a stack scratch buffer: a call
/// allocates nothing.
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
    with_scratch(extra, |buf| {
        for_each_child(trie, node, labels(level0), |v, child| {
            buf[0] = v;
            if extra == 1 {
                f(buf);
            } else if level1.is_none() {
                trie.for_each_extension(child, extra - 1, |rest| {
                    buf[1..].copy_from_slice(rest);
                    f(buf);
                });
            } else {
                for_each_child(trie, child, labels(level1), |w, grand| {
                    buf[1] = w;
                    trie.for_each_extension(grand, extra - 2, |rest| {
                        buf[2..].copy_from_slice(rest);
                        f(buf);
                    });
                });
            }
        });
    });
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
    let mut levels: Vec<Level<S>> = (0..plan.levels).map(|_| Level::default()).collect();
    engine.recursive_join(root, &mut levels, &mut out);
    // A shard's rows wait in their slot until the client has read the
    // slots before it; the faster the engine, the more slots wait at once.
    out.release_slack();
    (out, engine.stats)
}

/// The buffers one nesting level of [`NodeKind::Split`] nodes works in.
/// At most one node per level is active at a time, so a run allocates one
/// set per level and every call at that level reuses it.
struct Level<'t, S: SearchTree + 't> {
    /// `L`: the left child's rows (`t_W` candidates).
    left: RowBuf,
    /// Case a: the right child's rows (`t_{W⁻}` candidates).
    right: RowBuf,
    /// The split's probes: its check edges' sections, then its pushed
    /// filters', under the current `t_W`.
    probes: Vec<Probe<'t, S>>,
    /// Case b: the leapfrog's sides, one row per level of the anchor walk
    /// (`AnchorScan`) — every probe's, then the anchor's.
    walk: Vec<Side<S::Node, S::Children<'t>>>,
}

impl<S: SearchTree> Default for Level<'_, S> {
    fn default() -> Self {
        Level {
            left: RowBuf::default(),
            right: RowBuf::default(),
            probes: Vec::new(),
            walk: Vec::new(),
        }
    }
}

/// One probe of a split (a check edge's section or a pushed filter's),
/// kept current as `t_W` steps through the left child's rows. Its
/// section positions are a `t_S` part, the same for the whole call, then
/// a `W` part. The `t_S` part is descended once per call. The rows arrive
/// sorted, so the first `W` value only grows while the `W` values before
/// it stay: its seek resumes where the previous row's landed, and a row
/// that changes none of the probe's `W` values keeps its section.
struct Probe<'t, S: SearchTree + 't> {
    /// How many of the section's positions lie in `t_S`.
    fixed: usize,
    /// The node under the `t_S` part; `None` when it is absent.
    base: Option<S::Node>,
    /// The scan of `base`'s children for the first `W` value.
    children: S::Children<'t>,
    /// The node under the `t_S` part and the first `W` value.
    first: Option<S::Node>,
    /// The section under `t_S ∪ t_W`; `None` when it is empty.
    section: Option<S::Node>,
}

/// The sections a split probes: its check edges', then its pushed
/// filters'.
fn probe_sections(split: &Split) -> impl Iterator<Item = &Section> {
    split
        .checks
        .iter()
        .map(|c| &c.section)
        .chain(&split.filters)
}

/// Case b's scan (Procedure 5, lines 27–29), a leapfrog intersection: the
/// walk goes down the anchor section one level of `W⁻` at a time, and at
/// each level it intersects the anchor's children with those of every
/// probe that binds the level — the check edges holding that attribute
/// and every pushed filter ([`Split::walk`]). A probe's next label lets
/// the anchor skip every value below it, and a value some probe lacks
/// prunes its whole subtree, so a mismatch on `W⁻`'s first attribute
/// costs one step, not one per completion below it.
///
/// Each level runs [`leapfrog`] over the borrowed sorted slices its sides
/// hand out ([`SearchTree::labels`]) and takes each match's children by
/// offset ([`SearchTree::child_at`]).
struct AnchorScan<'a, S: SearchTree> {
    tries: &'a [S],
    /// The anchor `e_k`'s search tree.
    anchor: &'a S,
    /// Per walk level, the probes that bind it.
    walk: &'a [Vec<(usize, usize)>],
    /// How many probes the split has: a walk row holds their sides, then
    /// the anchor's.
    probes: usize,
    /// The shard's value ranges for the walk's levels 0 and 1
    /// ([`Engine::scan_filters`]).
    ranges: [LevelRange; 2],
    /// Where `t_{W⁻}` starts in the output row.
    wm_at: usize,
}

impl<'t, S: SearchTree> AnchorScan<'t, S> {
    /// Visits the children of the anchor's node at walk level `j` that
    /// every binding probe holds. `sides[..=probes]` is level `j`'s row —
    /// every probe's node there, then the anchor's; the rows after it are
    /// filled for the levels below. `lanes` holds one row of slices per
    /// level the same way. `row` is `t_W` followed by the `t_{W⁻}` being
    /// built; each complete row goes to `out`.
    fn level(
        &self,
        j: usize,
        sides: &mut [Side<S::Node, S::Children<'t>>],
        lanes: &mut [Lane<'t>],
        row: &mut [Value],
        out: &mut RowBuf,
    ) {
        let binds = &self.walk[j];
        let (here, deeper) = sides.split_at_mut(self.probes + 1);
        let (anchor, here) = here.split_last_mut().expect("the anchor's side");
        anchor.children = self.anchor.children(anchor.node);
        for &(p, e) in binds {
            here[p].children = self.tries[e].children(here[p].node);
        }
        let last = j + 1 == self.walk.len();
        if !last {
            // Probes that do not bind level j carry their node forward.
            for (next, side) in deeper.iter_mut().zip(here.iter()) {
                next.node = side.node;
            }
        }
        let (lo, hi) = self
            .ranges
            .get(j)
            .copied()
            .flatten()
            .unwrap_or((Value(u64::MIN), Value(u64::MAX)));
        let at = self.wm_at + j;
        let (lanes, lanes_deeper) = lanes.split_at_mut(self.probes + 1);
        let lanes = &mut lanes[..=binds.len()];
        let slices = binds
            .iter()
            .map(|&(p, e)| self.tries[e].labels(&here[p].children))
            .chain([self.anchor.labels(&anchor.children)]);
        for (lane, labels) in lanes.iter_mut().zip(slices) {
            *lane = Lane::new(labels);
        }
        if last {
            leapfrog(lanes, lo, hi, |v, _| {
                row[at] = v;
                out.push_row(row);
            });
            return;
        }
        let (anchor, here) = (&*anchor, &*here);
        leapfrog(lanes, lo, hi, |v, lanes| {
            row[at] = v;
            for (&(p, e), lane) in binds.iter().zip(lanes) {
                deeper[p].node = self.tries[e].child_at(&here[p].children, lane.at);
            }
            let a = lanes[binds.len()].at;
            deeper[self.probes].node = self.anchor.child_at(&anchor.children, a);
            self.level(j + 1, deeper, lanes_deeper, row, out);
        });
    }
}

/// One side of case b's leapfrog at one walk level: a probe's or the
/// anchor's node there, and the scan of its children
/// ([`SearchTree::children`]), opened when the walk reaches the level.
#[derive(Clone, Copy)]
struct Side<N, C> {
    node: N,
    children: C,
}

impl<N, C: Default> Side<N, C> {
    fn new(node: N) -> Self {
        Side {
            node,
            children: C::default(),
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

impl<'a, S: SearchTree> Engine<'a, S> {
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
    fn recursive_join(&mut self, id: usize, levels: &mut [Level<'a, S>], out: &mut RowBuf) {
        let plan = self.plan;
        let node = &plan.nodes[id];
        out.reset(node.arity);
        match &node.kind {
            NodeKind::Leaf { covering, filters } => self.leaf_join(node, covering, filters, out),
            NodeKind::Pass { left } => {
                self.recursive_join(*left, levels, out);
                self.stats.intermediate_tuples += out.len() as u64;
            }
            NodeKind::Split(split) => self.split_join(node, split, levels, out),
            NodeKind::Dead => debug_assert!(false, "unreachable under a valid cover"),
        }
    }

    /// Sets up `probes` for one call of the split at `node`: descends each
    /// probe's `t_S` part, which no `t_W` changes.
    fn open_probes(&self, node: &NodePlan, split: &Split, probes: &mut Vec<Probe<'a, S>>) {
        probes.clear();
        probes.extend(probe_sections(split).map(|s| {
            let trie = &self.tries[s.edge];
            let fixed = s.positions.partition_point(|&p| p < node.start);
            let base = s.positions[..fixed]
                .iter()
                .try_fold(trie.root(), |n, &p| trie.descend(n, self.bound[p]));
            Probe {
                fixed,
                base,
                children: base.map_or_else(Default::default, |n| trie.children(n)),
                first: None,
                section: base,
            }
        }));
    }

    /// Brings `probes` to the `t_W` just bound, whose first `shared`
    /// values equal the previous `t_W`'s (0 for a call's first row).
    fn advance_probes(
        &self,
        node: &NodePlan,
        split: &Split,
        probes: &mut [Probe<'a, S>],
        shared: usize,
    ) {
        let changed = node.start + shared;
        for (probe, s) in probes.iter_mut().zip(probe_sections(split)) {
            let Some(base) = probe.base else { continue };
            let w_pos = &s.positions[probe.fixed..];
            let Some((&first, rest)) = w_pos.split_first() else {
                continue; // no W values: the section is the base
            };
            if w_pos.last().is_some_and(|&q| q < changed) {
                continue; // none of the probe's W values changed
            }
            let trie = &self.tries[s.edge];
            if first >= changed {
                if first > changed {
                    // A W value before the first one changed: it may shrink.
                    probe.children = trie.children(base);
                }
                let v = self.bound[first];
                probe.first = (trie.seek(&mut probe.children, v) == Some(v))
                    .then(|| trie.child(&probe.children));
            }
            probe.section = rest.iter().fold(probe.first, |n, &q| {
                n.and_then(|n| trie.descend(n, self.bound[q]))
            });
        }
    }

    /// Procedure 5, lines 10–29.
    ///
    /// **Counting.** `intermediate_tuples` counts the rows each node
    /// materialises for its parent: here the left child's rows `L` and,
    /// per case-a `t_W`, the right child's rows. The anchor filter of lines
    /// 22–25 runs inside the right child (its pushed filters), so those
    /// rows are already the ones the anchor contains, and rows the filter
    /// drops are never built or counted. A leaf counts the candidates it
    /// scans, before the other covering sections and the filters probe
    /// them; a `Pass` node counts its left child's rows again.
    fn split_join(
        &mut self,
        node: &NodePlan,
        split: &'a Split,
        levels: &mut [Level<'a, S>],
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
        let n_probes = split.checks.len() + split.filters.len();
        self.open_probes(node, split, &mut level.probes);
        // Case b's walk rows, one per `W⁻` level: only level 0's probe
        // nodes change with t_W, and the walk fills the rows below.
        level.walk.clear();
        if let Some(anchor) = anchor {
            level
                .walk
                .resize(wm_len * (n_probes + 1), Side::new(anchor));
        }

        for l in 0..level.left.len() {
            // bind t_W
            let t_w = level.left.row(l);
            // Rows come sorted (the probes' seeks rely on it): t_W shares
            // its first `shared` values with the previous row.
            let shared = match l.checked_sub(1) {
                Some(prev) => {
                    let prev = level.left.row(prev);
                    debug_assert!(prev < t_w, "a child's rows ascend");
                    prev.iter().zip(t_w).take_while(|(a, b)| a == b).count()
                }
                None => 0,
            };
            self.bound[node.start..split.wm_start].copy_from_slice(t_w);
            self.advance_probes(node, split, &mut level.probes, shared);

            // line 19/21: choose case.
            let mut case_a = false;
            if let Some(exp) = exponents {
                // lhs = ∏_{i<k} c_i^{y_i/(1−y_k)} in log space.
                let mut lhs_log = 0.0f64;
                let mut lhs_zero = false;
                for (p, check) in split.checks.iter().enumerate() {
                    let i = check.at;
                    if self.covers[y + i] <= 0.0 {
                        continue; // 0^0 = 1 convention
                    }
                    let c_i = level.probes[p].section.map_or(0, |n| {
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
                // lines 22–25: recurse right with the scaled cover. The
                // anchor filter ran inside the right child, as its pushed
                // filter: every row it returns extends the anchor section.
                let rc = split.right.expect("case a requires rc");
                self.recursive_join(rc, deeper, &mut level.right);
                self.stats.intermediate_tuples += level.right.len() as u64;
                debug_assert!(
                    level
                        .right
                        .rows()
                        .all(|z| anchor.and_then(|a| trie_k.descend_tuple(a, z)).is_some()),
                    "a right-child row outside the anchor section: the pushed filter is missing"
                );
                for z in level.right.rows() {
                    out.push_concat(t_w, z);
                }
            } else {
                self.stats.case_b += 1;
                // lines 27–29: scan the anchor's section, intersect the
                // others (an edge whose section is empty admits nothing).
                if anchor.is_none() {
                    continue;
                }
                let sections = level.probes.iter().map(|p| p.section);
                if !level
                    .walk
                    .iter_mut()
                    .zip(sections)
                    .all(|(side, s)| s.map(|n| side.node = n).is_some())
                {
                    continue;
                }
                let scan = AnchorScan {
                    tries,
                    anchor: trie_k,
                    walk: &split.walk,
                    probes: n_probes,
                    ranges: [f0, f1],
                    wm_at: split.wm_start - node.start,
                };
                let row = &mut self.bound[node.start..node.start + node.arity];
                // The slices a plain walk level intersects, laid out like
                // the walk's rows.
                with_scratch(level.walk.len(), |lanes| {
                    scan.level(0, &mut level.walk, lanes, row, out);
                });
            }
        }
    }

    /// Leaf case (Procedure 5, lines 3–9): `univ ⊆ e_i` for every
    /// covering edge: intersect the section-projections, scanning the
    /// smallest. The pushed filters' sections only probe, and are never
    /// sized.
    fn leaf_join(
        &mut self,
        node: &NodePlan,
        covering: &[Section],
        filters: &[Section],
        out: &mut RowBuf,
    ) {
        let tries = self.tries;
        let mut sections = std::mem::take(&mut self.leaf_nodes);
        sections.clear();
        sections.extend(
            covering
                .iter()
                .chain(filters)
                .map_while(|s| self.section(s)),
        );
        // Some section empty → empty join.
        if sections.len() == covering.len() + filters.len() {
            // argmin covering section size (the first of equals)
            let j = (0..covering.len())
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
                    .chain(filters)
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
