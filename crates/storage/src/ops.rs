//! Relational algebra over [`Relation`].
//!
//! These are the primitives the paper's algorithms and baselines are built
//! from. `natural_join` is the hash join the paper assumes computable in
//! `O(|R| + |S| + |R ⋈ S|)` (§2 footnote 3); `semijoin` is the `⋉` of §2;
//! the rest are the textbook operators. All operators return relations with
//! set semantics (sorted, deduplicated).

use crate::hash::{map_with_capacity, set_with_capacity};
use crate::{Attr, Relation, Schema, StorageError, Value};

/// `π_attrs(rel)`: projection with duplicate elimination.
///
/// # Errors
/// [`StorageError::UnknownAttr`] if an attribute is absent.
pub fn project(rel: &Relation, attrs: &[Attr]) -> Result<Relation, StorageError> {
    let positions = rel.schema().positions_of(attrs)?;
    let schema = Schema::new(attrs.to_vec())?;
    let mut out = Relation::empty(schema);
    let mut buf = Vec::with_capacity(positions.len());
    for row in rel.iter_rows() {
        buf.clear();
        buf.extend(positions.iter().map(|&p| row[p]));
        out.push_row(&buf).expect("projection arity is consistent");
    }
    out.sort_dedup();
    Ok(out)
}

/// `σ_{attr = value}(rel)`.
///
/// # Errors
/// [`StorageError::UnknownAttr`] if the attribute is absent.
pub fn select_eq(rel: &Relation, attr: Attr, value: Value) -> Result<Relation, StorageError> {
    let p = rel
        .schema()
        .position(attr)
        .ok_or(StorageError::UnknownAttr(attr))?;
    Ok(select(rel, |row| row[p] == value))
}

/// Generic selection by row predicate.
pub fn select(rel: &Relation, pred: impl Fn(&[Value]) -> bool) -> Relation {
    let mut out = Relation::empty(rel.schema().clone());
    for row in rel.iter_rows() {
        if pred(row) {
            out.push_row(row).expect("same arity");
        }
    }
    out
}

/// `ρ`: renames attributes according to `(from, to)` pairs.
///
/// # Errors
/// [`StorageError::UnknownAttr`] for a missing source attribute,
/// [`StorageError::DuplicateAttr`] if renaming collides.
pub fn rename(rel: &Relation, pairs: &[(Attr, Attr)]) -> Result<Relation, StorageError> {
    let mut attrs = rel.schema().attrs().to_vec();
    for &(from, to) in pairs {
        let p = rel
            .schema()
            .position(from)
            .ok_or(StorageError::UnknownAttr(from))?;
        attrs[p] = to;
    }
    let mut out = rel.with_schema(Schema::new(attrs)?)?;
    out.sort_dedup();
    Ok(out)
}

/// Reorders `rel`'s columns to match `target` (same attribute set). A
/// relation already in `target`'s layout is copied as is — it is sorted
/// under that layout already.
///
/// # Errors
/// [`StorageError::SchemaMismatch`] if the attribute sets differ.
pub fn reorder(rel: &Relation, target: &Schema) -> Result<Relation, StorageError> {
    let mut out = rel.clone();
    if rel.schema() != target {
        out.reorder_columns(target)?;
        out.sort_dedup();
    }
    Ok(out)
}

/// `l ∪ r` (same attribute set; `r` is reordered to `l`'s layout).
///
/// # Errors
/// [`StorageError::SchemaMismatch`] if the attribute sets differ.
pub fn union(l: &Relation, r: &Relation) -> Result<Relation, StorageError> {
    let r = reorder(r, l.schema())?;
    let mut out = l.clone();
    for row in r.iter_rows() {
        out.push_row(row).expect("same arity");
    }
    out.sort_dedup();
    Ok(out)
}

/// `l − r` (set difference; same attribute set).
///
/// # Errors
/// [`StorageError::SchemaMismatch`] if the attribute sets differ.
pub fn difference(l: &Relation, r: &Relation) -> Result<Relation, StorageError> {
    let r = reorder(r, l.schema())?;
    let set = r.row_set();
    Ok(select(l, |row| !set.contains(row)))
}

/// `l ∩ r` (same attribute set).
///
/// # Errors
/// [`StorageError::SchemaMismatch`] if the attribute sets differ.
pub fn intersect(l: &Relation, r: &Relation) -> Result<Relation, StorageError> {
    let r = reorder(r, l.schema())?;
    let set = r.row_set();
    Ok(select(l, |row| set.contains(row)))
}

/// `l ⋉ r` — semijoin (paper §2): tuples of `l` with a partner in `r` on
/// the shared attributes. With no shared attributes this is `l` when `r`
/// is non-empty and empty otherwise.
#[must_use]
pub fn semijoin(l: &Relation, r: &Relation) -> Relation {
    let shared = l.schema().intersection(r.schema());
    if shared.is_empty() {
        return if r.is_empty() {
            Relation::empty(l.schema().clone())
        } else {
            l.clone()
        };
    }
    let lpos = l
        .schema()
        .positions_of(&shared)
        .expect("intersection attrs present in l");
    let rpos = r
        .schema()
        .positions_of(&shared)
        .expect("intersection attrs present in r");
    let mut keys = set_with_capacity(r.len());
    for row in r.iter_rows() {
        keys.insert(rpos.iter().map(|&p| row[p]).collect::<Vec<_>>());
    }
    select(l, |row| {
        let key: Vec<Value> = lpos.iter().map(|&p| row[p]).collect();
        keys.contains(&key)
    })
}

/// `l ⋈ r` — hash-based natural join.
///
/// Builds a hash table on the smaller input keyed by the shared attributes
/// and probes with the larger, giving the `O(|R| + |S| + |R ⋈ S|)` cost the
/// paper assumes. Degenerates to a cross product when no attributes are
/// shared. Output schema: `l`'s attributes followed by `r`'s new ones.
#[must_use]
pub fn natural_join(l: &Relation, r: &Relation) -> Relation {
    let shared = l.schema().intersection(r.schema());
    let out_schema = l.schema().union(r.schema());
    let mut out = Relation::empty(out_schema);
    if l.is_empty() || r.is_empty() {
        return out;
    }
    if l.arity() == 0 {
        return copy_into(r, out);
    }
    if r.arity() == 0 {
        return copy_into(l, out);
    }

    // Build on the smaller side (probe cost dominates).
    let (build, probe, build_is_l) = if l.len() <= r.len() {
        (l, r, true)
    } else {
        (r, l, false)
    };
    let bpos = build
        .schema()
        .positions_of(&shared)
        .expect("shared attrs in build");
    let ppos = probe
        .schema()
        .positions_of(&shared)
        .expect("shared attrs in probe");
    let mut table = map_with_capacity::<Vec<Value>, Vec<usize>>(build.len());
    for (i, row) in build.iter_rows().enumerate() {
        let key: Vec<Value> = bpos.iter().map(|&p| row[p]).collect();
        table.entry(key).or_default().push(i);
    }

    // Output column order is l's schema then r's new attrs; compute, for
    // each output column, where to read it from (build row or probe row).
    let out_attrs: Vec<Attr> = out.schema().attrs().to_vec();
    enum Src {
        Build(usize),
        Probe(usize),
    }
    let plan: Vec<Src> = out_attrs
        .iter()
        .map(|&a| {
            if build_is_l {
                if let Some(p) = build.schema().position(a) {
                    Src::Build(p)
                } else {
                    Src::Probe(probe.schema().position(a).expect("attr in one side"))
                }
            } else if let Some(p) = probe.schema().position(a) {
                // keep l's values coming from l (= probe here) for layout
                Src::Probe(p)
            } else {
                Src::Build(build.schema().position(a).expect("attr in one side"))
            }
        })
        .collect();

    let mut buf = vec![Value(0); out_attrs.len()];
    let mut key = Vec::with_capacity(ppos.len());
    for prow in probe.iter_rows() {
        key.clear();
        key.extend(ppos.iter().map(|&p| prow[p]));
        let Some(matches) = table.get(&key) else {
            continue;
        };
        for &bi in matches {
            let brow = build.row(bi);
            for (slot, src) in buf.iter_mut().zip(&plan) {
                *slot = match src {
                    Src::Build(p) => brow[*p],
                    Src::Probe(p) => prow[*p],
                };
            }
            out.push_row(&buf).expect("join arity consistent");
        }
    }
    out.sort_dedup();
    out
}

/// Copies `src`'s rows into `out` (identical attribute sets by
/// construction) and returns it.
fn copy_into(src: &Relation, mut out: Relation) -> Relation {
    for row in src.iter_rows() {
        out.push_row(row).expect("same attrs");
    }
    out.sort_dedup();
    out
}

/// `l × r` — cross product (requires disjoint attribute sets).
///
/// # Errors
/// [`StorageError::SchemaMismatch`] if the schemas share an attribute.
pub fn cross_product(l: &Relation, r: &Relation) -> Result<Relation, StorageError> {
    if !l.schema().intersection(r.schema()).is_empty() {
        return Err(StorageError::SchemaMismatch);
    }
    Ok(natural_join(l, r))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(schema: &[u32], rows: &[&[u32]]) -> Relation {
        Relation::from_u32_rows(Schema::of(schema), rows)
    }

    #[test]
    fn project_dedups() {
        let r = rel(&[0, 1], &[&[1, 10], &[1, 20], &[2, 10]]);
        let p = project(&r, &[Attr(0)]).unwrap();
        assert_eq!(p.len(), 2);
        assert!(p.contains_row(&[Value(1)]));
        assert!(p.contains_row(&[Value(2)]));
        assert!(project(&r, &[Attr(9)]).is_err());
    }

    #[test]
    fn project_reorders_columns() {
        let r = rel(&[0, 1], &[&[1, 10]]);
        let p = project(&r, &[Attr(1), Attr(0)]).unwrap();
        assert_eq!(p.schema(), &Schema::of(&[1, 0]));
        assert!(p.contains_row(&[Value(10), Value(1)]));
    }

    #[test]
    fn select_variants() {
        let r = rel(&[0, 1], &[&[1, 10], &[2, 20]]);
        let s = select_eq(&r, Attr(0), Value(1)).unwrap();
        assert_eq!(s.len(), 1);
        assert!(select_eq(&r, Attr(7), Value(0)).is_err());
        let s2 = select(&r, |row| row[1] == Value(20));
        assert_eq!(s2.len(), 1);
        assert!(s2.contains_row(&[Value(2), Value(20)]));
    }

    #[test]
    fn rename_and_reorder() {
        let r = rel(&[0, 1], &[&[1, 10]]);
        let rn = rename(&r, &[(Attr(0), Attr(5))]).unwrap();
        assert_eq!(rn.schema(), &Schema::of(&[5, 1]));
        assert!(rename(&r, &[(Attr(9), Attr(5))]).is_err());
        assert!(rename(&r, &[(Attr(0), Attr(1))]).is_err()); // collision

        let rr = reorder(&r, &Schema::of(&[1, 0])).unwrap();
        assert!(rr.contains_row(&[Value(10), Value(1)]));
        assert!(reorder(&r, &Schema::of(&[0, 2])).is_err());
    }

    #[test]
    fn union_difference_intersect() {
        let a = rel(&[0], &[&[1], &[2]]);
        let b = rel(&[0], &[&[2], &[3]]);
        assert_eq!(union(&a, &b).unwrap().len(), 3);
        let d = difference(&a, &b).unwrap();
        assert_eq!(d.len(), 1);
        assert!(d.contains_row(&[Value(1)]));
        let i = intersect(&a, &b).unwrap();
        assert_eq!(i.len(), 1);
        assert!(i.contains_row(&[Value(2)]));
        let c = rel(&[1], &[&[1]]);
        assert!(union(&a, &c).is_err());
    }

    #[test]
    fn union_handles_column_order() {
        let a = rel(&[0, 1], &[&[1, 2]]);
        let b_swapped = rel(&[1, 0], &[&[2, 1]]); // same tuple, swapped layout
        let u = union(&a, &b_swapped).unwrap();
        assert_eq!(u.len(), 1, "identical tuples must merge across layouts");
    }

    #[test]
    fn semijoin_basic() {
        let l = rel(&[0, 1], &[&[1, 10], &[2, 20], &[3, 30]]);
        let r = rel(&[1, 2], &[&[10, 100], &[30, 300]]);
        let s = semijoin(&l, &r);
        assert_eq!(s.len(), 2);
        assert!(s.contains_row(&[Value(1), Value(10)]));
        assert!(s.contains_row(&[Value(3), Value(30)]));
    }

    #[test]
    fn semijoin_disjoint_schemas() {
        let l = rel(&[0], &[&[1]]);
        let nonempty = rel(&[1], &[&[5]]);
        let empty = Relation::empty(Schema::of(&[1]));
        assert_eq!(semijoin(&l, &nonempty).len(), 1);
        assert_eq!(semijoin(&l, &empty).len(), 0);
    }

    #[test]
    fn natural_join_shared_key() {
        // R(A,B) ⋈ S(B,C)
        let r = rel(&[0, 1], &[&[1, 10], &[2, 10], &[3, 30]]);
        let s = rel(&[1, 2], &[&[10, 100], &[10, 200], &[40, 400]]);
        let j = natural_join(&r, &s);
        assert_eq!(j.schema(), &Schema::of(&[0, 1, 2]));
        assert_eq!(j.len(), 4); // {1,2}×{100,200}
        assert!(j.contains_row(&[Value(1), Value(10), Value(100)]));
        assert!(j.contains_row(&[Value(2), Value(10), Value(200)]));
        assert!(!j.contains_row(&[Value(3), Value(30), Value(400)]));
    }

    #[test]
    fn natural_join_is_symmetric_as_a_set() {
        let r = rel(&[0, 1], &[&[1, 10], &[2, 20]]);
        let s = rel(&[1, 2], &[&[10, 5], &[20, 6], &[20, 7]]);
        let a = natural_join(&r, &s);
        let b = reorder(&natural_join(&s, &r), a.schema()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn natural_join_multiple_shared_attrs() {
        let r = rel(&[0, 1, 2], &[&[1, 2, 3], &[1, 2, 4]]);
        let s = rel(&[1, 2, 3], &[&[2, 3, 9], &[2, 4, 8]]);
        let j = natural_join(&r, &s);
        assert_eq!(j.schema(), &Schema::of(&[0, 1, 2, 3]));
        assert_eq!(j.len(), 2);
        assert!(j.contains_row(&[Value(1), Value(2), Value(3), Value(9)]));
        assert!(j.contains_row(&[Value(1), Value(2), Value(4), Value(8)]));
    }

    #[test]
    fn natural_join_no_shared_is_cross() {
        let r = rel(&[0], &[&[1], &[2]]);
        let s = rel(&[1], &[&[10], &[20], &[30]]);
        let j = natural_join(&r, &s);
        assert_eq!(j.len(), 6);
        let c = cross_product(&r, &s).unwrap();
        assert_eq!(j, c);
        assert!(cross_product(&r, &r).is_err());
    }

    #[test]
    fn natural_join_with_empty_and_unit() {
        let r = rel(&[0], &[&[1]]);
        let e = Relation::empty(Schema::of(&[0]));
        assert!(natural_join(&r, &e).is_empty());
        let t = Relation::nullary_true();
        let j = natural_join(&r, &t);
        assert_eq!(j, r);
        let j2 = natural_join(&t, &r);
        assert_eq!(j2, r);
        let f = Relation::unit();
        assert!(natural_join(&r, &f).is_empty());
    }

    /// `l ⋈ r` by definition: every pair of rows that agrees on the
    /// shared attributes, laid out over `l`'s attributes then `r`'s new
    /// ones, as a sorted set.
    fn nested_loop(l: &Relation, r: &Relation) -> (Schema, Vec<Vec<Value>>) {
        let schema = l.schema().union(r.schema());
        let mut rows = std::collections::BTreeSet::new();
        for lr in l.iter_rows() {
            for rr in r.iter_rows() {
                // `None` as soon as the two rows disagree on a shared attribute
                let row: Option<Vec<Value>> = schema
                    .attrs()
                    .iter()
                    .map(|&a| {
                        let from_l = l.schema().position(a).map(|p| lr[p]);
                        let from_r = r.schema().position(a).map(|p| rr[p]);
                        match (from_l, from_r) {
                            (Some(x), Some(y)) if x != y => None,
                            (x, y) => x.or(y),
                        }
                    })
                    .collect();
                rows.extend(row);
            }
        }
        (schema, rows.into_iter().collect())
    }

    #[test]
    fn join_semantics_match_bruteforce() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(46);
        let mut random = |attrs: &[u32], n: usize| {
            let rows: Vec<Vec<Value>> = (0..n)
                .map(|_| attrs.iter().map(|_| Value(rng.gen_range(0..4))).collect())
                .collect();
            Relation::from_rows(Schema::of(attrs), rows).unwrap()
        };
        // (left attributes, right attributes): one shared attribute, two
        // (in another column order on each side), all (an intersection),
        // none (a cross product).
        let shapes: &[(&[u32], &[u32])] = &[
            (&[0, 1], &[1, 2]),
            (&[2, 0, 1], &[1, 3, 2]),
            (&[0, 1], &[1, 0]),
            (&[0, 1], &[2, 3]),
        ];
        let mut cases = Vec::new();
        for &(ls, rs) in shapes {
            for trial in 0..8 {
                cases.push((random(ls, 3 + 4 * trial), random(rs, 3 + 3 * trial)));
            }
            // an empty side, either way round
            cases.push((random(ls, 10), Relation::empty(Schema::of(rs))));
            cases.push((Relation::empty(Schema::of(ls)), random(rs, 10)));
        }
        // the nullary unit (and the nullary empty relation) on either side
        for unit in [Relation::nullary_true(), Relation::empty(Schema::of(&[]))] {
            cases.push((unit.clone(), random(&[0, 1], 10)));
            cases.push((random(&[0, 1], 10), unit.clone()));
            cases.push((unit.clone(), unit));
        }
        for (k, (l, r)) in cases.iter().enumerate() {
            let j = natural_join(l, r);
            let (schema, expected) = nested_loop(l, r);
            assert_eq!(j.schema(), &schema, "case {k}");
            let got: Vec<Vec<Value>> = j.iter_rows().map(<[Value]>::to_vec).collect();
            assert_eq!(
                got,
                expected,
                "case {k}: {:?} ⋈ {:?}",
                l.schema(),
                r.schema()
            );
        }
    }
}
