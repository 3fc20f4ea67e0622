//! Reference semantics: left-deep pairwise hash joins in input order.
//!
//! This is the *test oracle* for every algorithm in this crate: it is built
//! exclusively on `wcoj_storage::ops::natural_join` (an independent code
//! path from the trie-based algorithms) and its output is, by definition of
//! natural join, the correct answer. It is **not** worst-case optimal —
//! §6's lower bounds apply to exactly this kind of plan — which is what the
//! experiment suite demonstrates.

use wcoj_storage::ops::natural_join;
use wcoj_storage::Relation;

/// `⋈` of all relations, left-deep in the given order.
///
/// An empty input list yields the nullary `true` relation (join identity).
#[must_use]
pub fn join(relations: &[Relation]) -> Relation {
    let mut acc = Relation::nullary_true();
    for r in relations {
        if acc.is_empty() {
            // already empty; result schema must still be the full union
            let mut schema = acc.schema().clone();
            for rest in relations {
                schema = schema.union(rest.schema());
            }
            return Relation::empty(schema);
        }
        acc = natural_join(&acc, r);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcoj_storage::{Schema, Value};

    #[test]
    fn empty_list_is_true() {
        let j = join(&[]);
        assert_eq!(j.len(), 1);
        assert_eq!(j.arity(), 0);
    }

    #[test]
    fn triangle_join() {
        let r = Relation::from_u32_rows(Schema::of(&[0, 1]), &[&[1, 2], &[1, 3]]);
        let s = Relation::from_u32_rows(Schema::of(&[1, 2]), &[&[2, 4], &[3, 4]]);
        let t = Relation::from_u32_rows(Schema::of(&[0, 2]), &[&[1, 4]]);
        let j = join(&[r, s, t]);
        assert_eq!(j.len(), 2);
        assert!(j.contains_row(&[Value(1), Value(2), Value(4)]));
        assert!(j.contains_row(&[Value(1), Value(3), Value(4)]));
    }

    #[test]
    fn empty_relation_short_circuits_with_full_schema() {
        let r = Relation::from_u32_rows(Schema::of(&[0, 1]), &[&[1, 2]]);
        let e = Relation::empty(Schema::of(&[1, 2]));
        let j = join(&[r, e]);
        assert!(j.is_empty());
        assert_eq!(j.arity(), 3);
    }
}
