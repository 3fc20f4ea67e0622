//! The fifteen experiments of `crates/bench/README.md`. Each function
//! regenerates one of the paper's quantitative claims; sizes are chosen so
//! the full suite runs in a couple of minutes on a laptop.

use crate::table::{ms, time_secs, Table};
use wcoj_baselines::graph_join::join_graph;
use wcoj_baselines::lw::join_lw;
use wcoj_baselines::plan::execute_left_deep;
use wcoj_baselines::{best_actual_left_deep, optimize_left_deep};
use wcoj_core::nprr::qptree::build_qp_tree;
use wcoj_core::nprr::total_order::total_order;
use wcoj_core::{bt, fd, fullcq, join_with, naive, relaxed, Algorithm, JoinQuery};
use wcoj_datagen as gen;
use wcoj_hypergraph::agm;
use wcoj_hypergraph::tighten::tighten;
use wcoj_rational::Rational;
use wcoj_storage::{Attr, Relation};

fn sweep(quick: bool, full: &[u64], short: &[u64]) -> Vec<u64> {
    if quick {
        short.to_vec()
    } else {
        full.to_vec()
    }
}

/// E1 — Example 2.2 / §1: binary plans pay Θ(N²) on the hard triangle
/// family while LW/NPRR stay near-linear.
#[must_use]
pub fn e1_triangle_hard(quick: bool) -> Vec<Table> {
    let ns = sweep(quick, &[64, 128, 256, 512, 1024, 2048], &[64, 128]);
    let mut t = Table::new(
        "e1",
        "Example 2.2: binary join Θ(N²) vs LW/NPRR ~O(N) on the empty-output triangle",
        &[
            "N",
            "pairwise_join",
            "binary_ms",
            "lw_ms",
            "nprr_ms",
            "output",
        ],
        "pairwise_join = N²/4 + N/2; binary_ms grows ~4× per doubling, lw/nprr ~2×",
    );
    // Generate all instances up front (generation is untimed); scoped
    // threads fan the independent points out across cores.
    let instances: Vec<(u64, Vec<Relation>)> = std::thread::scope(|s| {
        let handles: Vec<_> = ns
            .iter()
            .map(|&n| s.spawn(move || (n, gen::example_2_2(n))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("gen"))
            .collect()
    });
    for (n, rels) in instances {
        let ((_, bstats), t_bin) = time_secs(|| execute_left_deep(&rels, &[0, 1, 2]).unwrap());
        let (lw_out, t_lw) = time_secs(|| join_lw(&JoinQuery::new(&rels).unwrap()).unwrap());
        let (nprr_out, t_nprr) = time_secs(|| join_with(&rels, Algorithm::Nprr, None).unwrap());
        assert!(lw_out.relation.is_empty() && nprr_out.relation.is_empty());
        t.row(vec![
            n.to_string(),
            bstats.max_intermediate.to_string(),
            ms(t_bin),
            ms(t_lw),
            ms(t_nprr),
            "0".to_string(),
        ]);
    }
    vec![t]
}

/// E2 — AGM tightness: the `[k]×[k]` triangle instance attains
/// `|q(I)| = N^{3/2}` exactly and our algorithms enumerate it within the
/// bound.
#[must_use]
pub fn e2_agm_tight(quick: bool) -> Vec<Table> {
    let ks = sweep(quick, &[4, 8, 12, 16, 20], &[4, 8]);
    let mut t = Table::new(
        "e2",
        "AGM tightness: grid triangle attains N^(3/2)",
        &[
            "k",
            "N=k^2",
            "output",
            "N^1.5",
            "agm_bound",
            "lw_ms",
            "nprr_ms",
        ],
        "output = N^1.5 = agm_bound exactly, for every k",
    );
    for k in ks {
        let rels = gen::agm_tight_triangle(k);
        let n = (k * k) as f64;
        let (lw_out, t_lw) = time_secs(|| join_lw(&JoinQuery::new(&rels).unwrap()).unwrap());
        let (nprr_out, t_nprr) = time_secs(|| join_with(&rels, Algorithm::Nprr, None).unwrap());
        assert_eq!(lw_out.relation.len(), nprr_out.relation.len());
        let bound = agm::best_bound(
            JoinQuery::new(&rels).unwrap().hypergraph(),
            &rels.iter().map(Relation::len).collect::<Vec<_>>(),
        )
        .unwrap();
        t.row(vec![
            k.to_string(),
            format!("{}", k * k),
            lw_out.relation.len().to_string(),
            format!("{:.0}", n.powf(1.5)),
            format!("{bound:.0}"),
            ms(t_lw),
            ms(t_nprr),
        ]);
    }
    vec![t]
}

/// E3 — Theorem 4.1: LW-algorithm scaling on random LW instances.
#[must_use]
pub fn e3_lw_scaling(quick: bool) -> Vec<Table> {
    let mut tables = Vec::new();
    for n_attr in [3usize, 4] {
        let ns = sweep(quick, &[250, 500, 1000, 2000, 4000], &[150, 300]);
        let mut t = Table::new(
            "e3",
            &format!("Theorem 4.1: LW algorithm on random LW(n={n_attr}) instances"),
            &[
                "N",
                "bound=(∏N)^(1/(n-1))",
                "output",
                "lw_ms",
                "nprr_ms",
                "naive_ms",
            ],
            "lw_ms grows like the bound column (≈N^{n/(n-1)}), not like naive blowups; \
             nprr_ms is what join() runs on the same instance",
        );
        for (i, n) in ns.iter().enumerate() {
            let dom = (*n as f64).powf(1.0 / (n_attr as f64 - 1.0)).ceil() as u64 * 2;
            let rels = gen::random_lw(42 + i as u64, n_attr, *n as usize, dom.max(4));
            let sizes: Vec<usize> = rels.iter().map(Relation::len).collect();
            let bound = sizes.iter().map(|&s| (s as f64).ln()).sum::<f64>() / (n_attr as f64 - 1.0);
            let (out, t_lw) = time_secs(|| join_lw(&JoinQuery::new(&rels).unwrap()).unwrap());
            let (nprr, t_nprr) = time_secs(|| join_with(&rels, Algorithm::Nprr, None).unwrap());
            let (nv, t_naive) = time_secs(|| naive::join(&rels));
            assert_eq!(out.relation.len(), nv.len());
            assert_eq!(out.relation, nprr.relation);
            t.row(vec![
                n.to_string(),
                format!("{:.0}", bound.exp()),
                out.relation.len().to_string(),
                ms(t_lw),
                ms(t_nprr),
                ms(t_naive),
            ]);
        }
        tables.push(t);
    }
    tables
}

/// E4 — §5.2 worked example: run NPRR on the 6-attribute query, verify the
/// output against the oracle and the AGM budget.
#[must_use]
pub fn e4_worked_example() -> Vec<Table> {
    e4_impl(&[200, 400, 800])
}

fn e4_impl(sizes: &[usize]) -> Vec<Table> {
    let mut t = Table::new(
        "e4",
        "§5.2 worked example: 5 relations over 6 attributes",
        &["N", "agm_log2", "output", "nprr_ms", "naive_ms", "matches"],
        "output ≤ 2^agm_log2; NPRR matches the oracle",
    );
    for (i, n) in sizes.iter().enumerate() {
        let rels = gen::worked_example(7 + i as u64, *n, 6);
        let (out, t_nprr) = time_secs(|| join_with(&rels, Algorithm::Nprr, None).unwrap());
        let (nv, t_naive) = time_secs(|| naive::join(&rels));
        let ok = out.relation.len() == nv.len();
        t.row(vec![
            n.to_string(),
            format!("{:.1}", out.stats.log2_agm_bound),
            out.relation.len().to_string(),
            ms(t_nprr),
            ms(t_naive),
            ok.to_string(),
        ]);
    }
    vec![t]
}

/// E5 — Figure 2: the QP tree and the paper's total order `1,4,2,5,3,6`.
#[must_use]
pub fn e5_figure2_tree() -> Vec<Table> {
    let rels = gen::worked_example(1, 10, 3);
    let q = JoinQuery::new(&rels).unwrap();
    let tree = build_qp_tree(q.hypergraph()).expect("non-degenerate");
    let order = total_order(&tree);
    let order_1based: Vec<String> = order.iter().map(|v| (v + 1).to_string()).collect();
    let mut t = Table::new(
        "e5",
        "Figure 2: query plan tree and total order of the §5.2 example",
        &["property", "value"],
        "total order = 1,4,2,5,3,6 (paper §5.2); root splits {1,2,4} / {3,5,6}",
    );
    t.row(vec!["total_order".into(), order_1based.join(",")]);
    t.row(vec!["tree_size".into(), tree.size().to_string()]);
    t.row(vec!["tree_height".into(), tree.height().to_string()]);
    for (i, line) in tree.render().lines().enumerate() {
        t.row(vec![format!("tree[{i}]"), line.trim_end().to_owned()]);
    }
    assert_eq!(order, vec![0, 3, 1, 4, 2, 5], "paper's total order");
    vec![t]
}

/// E6 — Theorem 5.1: NPRR output ≤ AGM bound on assorted random
/// hypergraph queries, timing vs the binary-plan baseline.
#[must_use]
pub fn e6_nprr_general(quick: bool) -> Vec<Table> {
    let shapes: &[(&str, &[&[u32]])] = &[
        ("triangle", &[&[0, 1], &[1, 2], &[0, 2]]),
        ("lw4", &[&[1, 2, 3], &[0, 2, 3], &[0, 1, 3], &[0, 1, 2]]),
        ("4cycle", &[&[0, 1], &[1, 2], &[2, 3], &[3, 0]]),
        ("mixed", &[&[0, 1, 2], &[2, 3], &[0, 3], &[1, 3]]),
        (
            "figure2",
            &[
                &[0, 1, 3, 4],
                &[0, 2, 3, 5],
                &[0, 1, 2],
                &[1, 3, 5],
                &[2, 4, 5],
            ],
        ),
    ];
    let rows_per_rel = if quick { 100 } else { 800 };
    let mut t = Table::new(
        "e6",
        "Theorem 5.1: NPRR respects the AGM bound on general queries",
        &[
            "shape",
            "agm_log2",
            "out_log2",
            "nprr_ms",
            "binary_ms",
            "within_bound",
        ],
        "out_log2 ≤ agm_log2 on every row; nprr competitive with the optimized binary plan",
    );
    for (si, (name, shape)) in shapes.iter().enumerate() {
        let rels: Vec<Relation> = shape
            .iter()
            .enumerate()
            .map(|(i, attrs)| gen::random_relation((si * 10 + i) as u64, attrs, rows_per_rel, 12))
            .collect();
        let (out, t_nprr) = time_secs(|| join_with(&rels, Algorithm::Nprr, None).unwrap());
        let order = optimize_left_deep(&rels);
        let ((bout, _), t_bin) = time_secs(|| execute_left_deep(&rels, &order).unwrap());
        assert_eq!(out.relation.len(), bout.len());
        let out_log2 = if out.relation.is_empty() {
            f64::NEG_INFINITY
        } else {
            (out.relation.len() as f64).log2()
        };
        t.row(vec![
            (*name).to_owned(),
            format!("{:.2}", out.stats.log2_agm_bound),
            if out_log2.is_finite() {
                format!("{out_log2:.2}")
            } else {
                "-inf".into()
            },
            ms(t_nprr),
            ms(t_bin),
            (out_log2 <= out.stats.log2_agm_bound + 1e-6).to_string(),
        ]);
    }
    vec![t]
}

/// E7 — Lemmas 6.1/6.2: on "simple" LW instances every binary plan (even
/// with oracle ordering) materialises Ω(N²/n²) while NPRR touches O(n²N).
#[must_use]
pub fn e7_lower_bound_gap(quick: bool) -> Vec<Table> {
    let mut tables = Vec::new();
    let attr_counts: &[usize] = if quick { &[3, 4] } else { &[3, 4, 6] };
    for &n_attr in attr_counts {
        let ns = sweep(quick, &[64, 128, 256, 512, 1024], &[32, 64]);
        let mut t = Table::new(
            "e7",
            &format!("Lemma 6.1/6.2 gap, n={n_attr}: oracle binary plan vs NPRR"),
            &[
                "N",
                "oracle_max_intermediate",
                "N^2/n^2",
                "nprr_intermediate",
                "binary_ms",
                "nprr_ms",
            ],
            "oracle_max_intermediate ≥ N²/n² (quadratic); nprr_intermediate = O(n²·N) (linear)",
        );
        for n in ns {
            let rels = gen::simple_lw(n_attr, n);
            let ((_, bstats), t_bin) = time_secs(|| best_actual_left_deep(&rels));
            let (out, t_nprr) = time_secs(|| join_with(&rels, Algorithm::Nprr, None).unwrap());
            let d = (n - 1) / (n_attr as u64 - 1);
            t.row(vec![
                n.to_string(),
                bstats.max_intermediate.to_string(),
                ((d + 1) * (d + 1)).to_string(),
                out.stats.intermediate_tuples.to_string(),
                ms(t_bin),
                ms(t_nprr),
            ]);
            assert!(bstats.max_intermediate as u64 >= (d + 1) * (d + 1));
        }
        tables.push(t);
    }
    tables
}

/// E8 — Lemma 6.3: the gap survives embedding the LW core into a larger
/// query with a pendant attribute.
#[must_use]
pub fn e8_embedded_gap(quick: bool) -> Vec<Table> {
    let mut tables = Vec::new();
    for k in [3usize, 4] {
        let ns = sweep(quick, &[64, 128, 256, 512], &[32, 64]);
        let mut t = Table::new(
            "e8",
            &format!("Lemma 6.3 embedded gap, |U|={k}"),
            &[
                "N",
                "oracle_max_intermediate",
                "nprr_intermediate",
                "binary_ms",
                "nprr_ms",
            ],
            "oracle binary stays quadratic in N; NPRR near-linear",
        );
        for n in ns {
            let rels = gen::embedded_gap(k, n);
            let ((_, bstats), t_bin) = time_secs(|| best_actual_left_deep(&rels));
            let (out, t_nprr) = time_secs(|| join_with(&rels, Algorithm::Nprr, None).unwrap());
            t.row(vec![
                n.to_string(),
                bstats.max_intermediate.to_string(),
                out.stats.intermediate_tuples.to_string(),
                ms(t_bin),
                ms(t_nprr),
            ]);
        }
        tables.push(t);
    }
    tables
}

/// E9 — Lemma 7.1: cycle queries in `O(m·√∏N)` via the graph-join path,
/// beside NPRR (what `join()` runs) on the same instances.
#[must_use]
pub fn e9_cycles(quick: bool) -> Vec<Table> {
    let mut t = Table::new(
        "e9",
        "Lemma 7.1: cycle queries (even via alternation, odd via bundled LW3)",
        &[
            "m",
            "N",
            "sqrt_prod",
            "output",
            "cycle_ms",
            "nprr_ms",
            "naive_ms",
            "matches",
        ],
        "cycle_ms tracks √(∏N) (= N^{m/2} worst case), beating naive's intermediates; \
         nprr_ms is what join() runs on the same instance",
    );
    // Cycle joins legitimately cost Θ(√∏N) = Θ(N^{m/2}); pick N per m so
    // the budget stays around a few million tuples.
    let ms_list: &[usize] = if quick { &[4, 5] } else { &[4, 5, 6, 7] };
    for &m in ms_list {
        let n: usize = if quick {
            40
        } else {
            match m {
                4 => 2000,
                5 => 500,
                6 => 180,
                _ => 90,
            }
        };
        let dom = (n as f64).sqrt().ceil() as u64 * 2;
        let rels = gen::cycle_instance(m as u64, m, n, dom);
        let sizes: Vec<usize> = rels.iter().map(Relation::len).collect();
        let sqrt_prod: f64 = (sizes.iter().map(|&s| (s as f64).ln()).sum::<f64>() / 2.0).exp();
        let (out, t_cyc) = time_secs(|| join_graph(&JoinQuery::new(&rels).unwrap()).unwrap());
        let (nprr, t_nprr) = time_secs(|| join_with(&rels, Algorithm::Nprr, None).unwrap());
        let (nv, t_naive) = time_secs(|| naive::join(&rels));
        assert_eq!(out.relation, nprr.relation);
        t.row(vec![
            m.to_string(),
            n.to_string(),
            format!("{sqrt_prod:.0}"),
            out.relation.len().to_string(),
            ms(t_cyc),
            ms(t_nprr),
            ms(t_naive),
            (out.relation.len() == nv.len()).to_string(),
        ]);
    }
    vec![t]
}

/// E10 — Theorem 7.3 + Lemma 7.2: random arity-≤2 queries, their
/// half-integral cover structure, and timing — beside NPRR (what `join()`
/// runs) with each path's `intermediate_tuples`. The last row is a pure
/// star, where Theorem 7.3's hash joins beat NPRR (every split is case b).
#[must_use]
pub fn e10_graph_queries(quick: bool) -> Vec<Table> {
    let mut t = Table::new(
        "e10",
        "Theorem 7.3: arity-≤2 queries via stars + odd cycles, vs NPRR",
        &[
            "instance",
            "edges",
            "stars",
            "cycles",
            "zeros",
            "output",
            "graph_ms",
            "graph_intermediate",
            "nprr_ms",
            "nprr_intermediate",
            "naive_ms",
        ],
        "every optimal BFS cover decomposes (Lemma 7.2); outputs match the oracle",
    );
    let rows_per_rel = if quick { 60 } else { 500 };
    // a triangle + a path + a pendant star, randomly populated
    let mixed: &[&[u32]] = &[&[0, 1], &[1, 2], &[0, 2], &[2, 3], &[3, 4], &[0, 5]];
    let mut instances: Vec<(String, Vec<Relation>)> = (0..6u64)
        .map(|seed| {
            let rels = mixed
                .iter()
                .enumerate()
                .map(|(i, attrs)| {
                    gen::random_relation(seed * 100 + i as u64, attrs, rows_per_rel, 10)
                })
                .collect();
            (format!("mixed seed {seed}"), rels)
        })
        .collect();
    // R(0,1) ⋈ S(0,2) ⋈ T(0,3): about ten rows per center value in each.
    let star_rows = if quick { 300 } else { 2000 };
    let star = (1..=3u32)
        .map(|leaf| {
            gen::random_relation(
                u64::from(leaf),
                &[0, leaf],
                star_rows,
                star_rows as u64 / 10,
            )
        })
        .collect();
    instances.push(("star".to_owned(), star));
    for (name, rels) in instances {
        let q = JoinQuery::new(&rels).unwrap();
        let cover = q.optimal_cover().unwrap();
        let decomp =
            wcoj_baselines::half_integral::decompose(q.hypergraph(), &cover.exact).unwrap();
        let (out, t_g) = time_secs(|| join_graph(&q).unwrap());
        let (nprr, t_nprr) = time_secs(|| join_with(&rels, Algorithm::Nprr, None).unwrap());
        let (nv, t_naive) = time_secs(|| naive::join(&rels));
        assert_eq!(out.relation.len(), nv.len());
        assert_eq!(out.relation, nprr.relation);
        t.row(vec![
            name,
            rels.len().to_string(),
            decomp.stars.len().to_string(),
            decomp.cycles.len().to_string(),
            decomp.zero_edges.len().to_string(),
            out.relation.len().to_string(),
            ms(t_g),
            out.stats.intermediate_tuples.to_string(),
            ms(t_nprr),
            nprr.stats.intermediate_tuples.to_string(),
            ms(t_naive),
        ]);
    }
    vec![t]
}

/// E11 — §7.2: relaxed joins; the tightness instance achieves `N + Nⁿ`.
#[must_use]
pub fn e11_relaxed(quick: bool) -> Vec<Table> {
    let mut t = Table::new(
        "e11",
        "§7.2 relaxed joins: Algorithm 6 vs brute force; tight instance hits N + N^n",
        &["instance", "r", "classes", "output", "expected", "alg6_ms"],
        "output = expected on every row; classes ≪ number of subsets",
    );
    // tightness family
    for n in [2u32, 3] {
        let cap = if quick { 3u64 } else { 8 };
        let rels = gen::relaxed_tight(n, cap);
        let (out, secs) = time_secs(|| relaxed::relaxed_join(&rels, n as usize).unwrap());
        let expected = cap + cap.pow(n);
        t.row(vec![
            format!("tight(n={n},N={cap})"),
            n.to_string(),
            out.classes.to_string(),
            out.relation.len().to_string(),
            expected.to_string(),
            ms(secs),
        ]);
        assert_eq!(out.relation.len() as u64, expected);
    }
    // random triangle with r = 1: cross-check against brute force
    let rows = if quick { 12 } else { 30 };
    for seed in 0..3u64 {
        let rels = vec![
            gen::random_relation(seed, &[0, 1], rows, 6),
            gen::random_relation(seed + 50, &[1, 2], rows, 6),
            gen::random_relation(seed + 99, &[0, 2], rows, 6),
        ];
        let (out, secs) = time_secs(|| relaxed::relaxed_join(&rels, 1).unwrap());
        let brute = relaxed::relaxed_join_bruteforce(&rels, 1).unwrap();
        t.row(vec![
            format!("random(seed={seed})"),
            "1".into(),
            out.classes.to_string(),
            out.relation.len().to_string(),
            brute.len().to_string(),
            ms(secs),
        ]);
        assert_eq!(out.relation.len(), brute.len());
    }
    vec![t]
}

/// E12 — §7.3 FDs: the AGM bound and runtime collapse once FDs are used.
#[must_use]
pub fn e12_fd(quick: bool) -> Vec<Table> {
    let mut t = Table::new(
        "e12",
        "§7.3 functional dependencies: FD-aware bound N² vs FD-blind worst order",
        &[
            "k",
            "N",
            "blind_log2_bound",
            "fd_log2_bound",
            "fd_ms",
            "blind_worstorder_ms",
        ],
        "fd bound ≈ 2·log N regardless of k; blind bound grows with k",
    );
    let n = if quick { 32usize } else { 256 };
    for k in [2u32, 3, 4] {
        let (rels, fd_triples) = gen::fd_family(3, k, n);
        let fds: Vec<fd::Fd> = fd_triples
            .iter()
            .map(|&(e, f, to)| fd::Fd {
                edge: e,
                from: Attr(f),
                to: Attr(to),
            })
            .collect();
        let q = JoinQuery::new(&rels).unwrap();
        let blind = q.optimal_cover().unwrap().log2_bound;
        let fd_bound = fd::expanded_log2_bound(&rels, &fds).unwrap();
        let (fd_out, t_fd) = time_secs(|| fd::join_with_fds(&rels, &fds).unwrap());
        // the "wrong join ordering" the paper warns about: join all Sᵢ
        // first (their join can blow up to N^k), then the Rᵢ.
        let wrong_order: Vec<usize> = (k as usize..2 * k as usize).chain(0..k as usize).collect();
        let ((bout, _), t_blind) = time_secs(|| execute_left_deep(&rels, &wrong_order).unwrap());
        assert_eq!(fd_out.relation.len(), bout.len());
        t.row(vec![
            k.to_string(),
            n.to_string(),
            format!("{blind:.1}"),
            format!("{fd_bound:.1}"),
            ms(t_fd),
            ms(t_blind),
        ]);
    }
    vec![t]
}

/// E13 — Corollary 5.3: algorithmic BT/LW inequality on random point sets.
#[must_use]
pub fn e13_bt(quick: bool) -> Vec<Table> {
    use wcoj_storage::ops::project;
    let mut t = Table::new(
        "e13",
        "Corollary 5.3: reconstructing S from d-regular projections",
        &["dims", "d", "|S|", "join_size", "bt_bound", "holds", "ms"],
        "join_size ≤ bt_bound and S ⊆ join, for every family",
    );
    let count = if quick { 30 } else { 200 };
    let dim_list: &[usize] = if quick { &[3, 4] } else { &[3, 4, 5] };
    for &dims in dim_list {
        let s = gen::random_relation_exact(
            dims as u64,
            &(0..dims as u32).collect::<Vec<_>>(),
            count,
            8,
        );
        let projs: Vec<Relation> = (0..dims)
            .map(|omit| {
                let keep: Vec<Attr> = (0..dims as u32)
                    .filter(|&v| v != omit as u32)
                    .map(Attr)
                    .collect();
                project(&s, &keep).unwrap()
            })
            .collect();
        let (out, secs) = time_secs(|| bt::reconstruct(&projs).unwrap());
        let sizes: Vec<usize> = projs.iter().map(Relation::len).collect();
        let holds = bt::inequality_holds(out.relation.len(), out.d, &sizes)
            && s.iter_rows().all(|r| out.relation.contains_row(r));
        t.row(vec![
            dims.to_string(),
            out.d.to_string(),
            s.len().to_string(),
            out.relation.len().to_string(),
            format!("{:.0}", out.log2_bound.exp2()),
            holds.to_string(),
            ms(secs),
        ]);
        assert!(holds);
    }
    vec![t]
}

/// E14 — §7.3 full conjunctive queries, end to end through the text
/// front-end.
#[must_use]
pub fn e14_full_cq() -> Vec<Table> {
    use wcoj_query::{execute, parse_query, Catalog};
    let mut t = Table::new(
        "e14",
        "§7.3 full conjunctive queries via the Datalog front-end",
        &["query", "output", "oracle", "matches"],
        "front-end output matches a hand-built oracle on every query",
    );
    let edges = gen::random_graph_edges(5, 50, 250);
    let mut catalog = Catalog::new();
    catalog.insert("E", edges.clone());

    // triangles with repeated relation use
    let q = parse_query("Tri(x, y, z) :- E(x, y), E(y, z), E(x, z)").unwrap();
    let out = execute(&q, &catalog).unwrap();
    // oracle: fullcq by hand
    let sub = |a: u32, b: u32| {
        fullcq::Subgoal::new(
            edges.clone(),
            vec![fullcq::Term::Var(a), fullcq::Term::Var(b)],
        )
        .unwrap()
    };
    let oracle = fullcq::evaluate(&[sub(0, 1), sub(1, 2), sub(0, 2)]).unwrap();
    t.row(vec![
        "Tri(x,y,z)".into(),
        out.relation.len().to_string(),
        oracle.len().to_string(),
        (out.relation.len() == oracle.len()).to_string(),
    ]);

    // 2-paths with a constant endpoint
    let q2 = parse_query("P(y, z) :- E(0, y), E(y, z)").unwrap();
    let out2 = execute(&q2, &catalog).unwrap();
    let mut count = 0usize;
    for r1 in edges.iter_rows() {
        if r1[0].0 == 0 {
            for r2 in edges.iter_rows() {
                if r2[0] == r1[1] {
                    count += 1;
                }
            }
        }
    }
    t.row(vec![
        "P(y,z) from 0".into(),
        out2.relation.len().to_string(),
        count.to_string(),
        (out2.relation.len() == count).to_string(),
    ]);
    vec![t]
}

/// E15 — Lemma 3.2: tightening is total, tight, and never worsens the
/// bound.
#[must_use]
pub fn e15_tighten() -> Vec<Table> {
    let mut t = Table::new(
        "e15",
        "Lemma 3.2: tight-cover transformation",
        &["shape", "edges_before", "edges_after", "tight", "bound_ok"],
        "tight = true and bound_ok = true on every shape",
    );
    let shapes: Vec<(&str, wcoj_hypergraph::Hypergraph, Vec<Rational>)> = vec![
        (
            "triangle/all-ones",
            wcoj_hypergraph::Hypergraph::new(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]]).unwrap(),
            vec![Rational::ONE; 3],
        ),
        (
            "path/overweight",
            wcoj_hypergraph::Hypergraph::new(3, vec![vec![0, 1], vec![1, 2]]).unwrap(),
            vec![Rational::ONE, Rational::ONE],
        ),
        (
            "lw4/uniform+slack",
            wcoj_hypergraph::Hypergraph::new(
                4,
                vec![vec![1, 2, 3], vec![0, 2, 3], vec![0, 1, 3], vec![0, 1, 2]],
            )
            .unwrap(),
            vec![Rational::new(1, 2); 4],
        ),
    ];
    for (name, h, x) in shapes {
        let res = tighten(&h, &x).unwrap();
        let tight = wcoj_hypergraph::cover::is_tight_cover(&res.hypergraph, &res.cover);
        // projections can only shrink: model |π(R)| = |R| (worst case)
        let sizes = vec![100usize; h.num_edges()];
        let ok = wcoj_hypergraph::tighten::bound_not_worse(&res, &sizes, &x, |s, _| sizes[s]);
        t.row(vec![
            name.to_owned(),
            h.num_edges().to_string(),
            res.hypergraph.num_edges().to_string(),
            tight.to_string(),
            ok.to_string(),
        ]);
        assert!(tight && ok);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    // Quick smoke runs of every experiment (the harness does full sweeps).
    #[test]
    fn e1_smoke() {
        let t = e1_triangle_hard(true);
        assert_eq!(t[0].rows.len(), 2);
    }
    #[test]
    fn e2_smoke() {
        let t = e2_agm_tight(true);
        // grid outputs equal N^1.5 exactly
        for row in &t[0].rows {
            assert_eq!(row[2], row[3]);
        }
    }
    #[test]
    fn e3_smoke() {
        assert_eq!(e3_lw_scaling(true).len(), 2);
    }
    #[test]
    fn e4_smoke() {
        let t = e4_impl(&[60, 120]);
        for row in &t[0].rows {
            assert_eq!(row[5], "true");
        }
    }
    #[test]
    fn e5_order_matches_paper() {
        let t = e5_figure2_tree();
        assert_eq!(t[0].rows[0][1], "1,4,2,5,3,6");
    }
    #[test]
    fn e6_smoke() {
        let t = e6_nprr_general(true);
        for row in &t[0].rows {
            assert_eq!(row[5], "true");
        }
    }
    #[test]
    fn e7_smoke() {
        let t = e7_lower_bound_gap(true);
        assert_eq!(t.len(), 2); // quick mode sweeps n ∈ {3, 4}
    }
    #[test]
    fn e8_smoke() {
        assert_eq!(e8_embedded_gap(true).len(), 2);
    }
    #[test]
    fn e9_smoke() {
        let t = e9_cycles(true);
        for row in &t[0].rows {
            assert_eq!(row[7], "true");
        }
    }
    #[test]
    fn e10_smoke() {
        let t = e10_graph_queries(true);
        let star = t[0].rows.last().unwrap();
        assert_eq!((star[0].as_str(), star[2].as_str()), ("star", "1"));
    }
    #[test]
    fn e11_smoke() {
        let _ = e11_relaxed(true);
    }
    #[test]
    fn e12_smoke() {
        let t = e12_fd(true);
        // FD-aware bound must be smaller than blind for k ≥ 3
        let blind: f64 = t[0].rows[1][2].parse().unwrap();
        let fdb: f64 = t[0].rows[1][3].parse().unwrap();
        assert!(fdb < blind);
    }
    #[test]
    fn e13_smoke() {
        let _ = e13_bt(true);
    }
    #[test]
    fn e14_smoke() {
        let t = e14_full_cq();
        for row in &t[0].rows {
            assert_eq!(row[3], "true");
        }
    }
    #[test]
    fn e15_smoke() {
        let _ = e15_tighten();
    }
}
