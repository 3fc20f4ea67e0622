//! Full conjunctive queries (paper §7.3).
//!
//! A *full* conjunctive query allows constants and repeated variables in
//! subgoals (and the same relation may occur several times). The paper's
//! reduction: in one scan per subgoal, produce a **reduced** relation over
//! the subgoal's *distinct variables*, keeping rows that satisfy the
//! constants and repeated-variable equalities; then the query is a plain
//! natural join of the reduced relations (over a multiset hypergraph,
//! which the rest of the stack supports since parallel edges are fine).

use crate::query::QueryError;
use wcoj_storage::{Attr, Relation, Schema, StorageError, Value};

/// A term of a subgoal: a variable (identified by id; variable `v` joins on
/// attribute `Attr(v)`) or a constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Term {
    /// A query variable.
    Var(u32),
    /// A constant (selection).
    Const(Value),
}

/// One subgoal: a relation and a term per column.
#[derive(Debug, Clone)]
pub struct Subgoal {
    /// The relation instance scanned by this subgoal.
    pub relation: Relation,
    /// Terms, one per column of `relation`.
    pub terms: Vec<Term>,
}

impl Subgoal {
    /// Builds a subgoal, checking arity.
    ///
    /// # Errors
    /// [`StorageError::ArityMismatch`] when `terms` and the relation
    /// disagree.
    pub fn new(relation: Relation, terms: Vec<Term>) -> Result<Subgoal, StorageError> {
        if terms.len() != relation.arity() {
            return Err(StorageError::ArityMismatch {
                expected: relation.arity(),
                got: terms.len(),
            });
        }
        Ok(Subgoal { relation, terms })
    }

    /// The paper's reduction: one scan producing a relation over this
    /// subgoal's distinct variables (first-occurrence order), keeping rows
    /// that match every constant and repeat equally on repeated variables.
    /// Distinct variables and no constants select every row: the relation
    /// itself under the variables' names, shared rather than scanned.
    #[must_use]
    pub fn reduce(&self) -> Relation {
        if let Some(sel) = Selection::of(&self.terms) {
            if sel.constants.is_empty() {
                return self
                    .relation
                    .with_schema(sel.schema)
                    .expect("one variable per column")
                    .into_sorted();
            }
        }
        // distinct variables in first-occurrence order
        let mut vars: Vec<u32> = Vec::new();
        for t in &self.terms {
            if let Term::Var(v) = t {
                if !vars.contains(v) {
                    vars.push(*v);
                }
            }
        }
        let schema =
            Schema::new(vars.iter().map(|&v| Attr(v)).collect()).expect("vars deduplicated");
        let mut out = Relation::empty(schema);
        let mut buf = vec![Value(0); vars.len()];
        let mut bound: Vec<Option<Value>> = vec![None; vars.len()];
        'rows: for row in self.relation.iter_rows() {
            bound.fill(None);
            for (t, &val) in self.terms.iter().zip(row) {
                match t {
                    Term::Const(c) => {
                        if *c != val {
                            continue 'rows;
                        }
                    }
                    Term::Var(v) => {
                        let slot = vars.iter().position(|x| x == v).expect("var collected");
                        match bound[slot] {
                            None => bound[slot] = Some(val),
                            Some(prev) if prev == val => {}
                            Some(_) => continue 'rows,
                        }
                    }
                }
            }
            for (b, s) in buf.iter_mut().zip(&bound) {
                *b = s.expect("every var bound by its occurrences");
            }
            out.push_row(&buf).expect("arity consistent");
        }
        out.sort_dedup();
        out
    }
}

/// What §7.3's reduction of a subgoal comes to when **no variable
/// repeats**, read off the terms alone: fix the constant columns, keep the
/// variable columns. That is the section `R[constants]` of an index of `R`
/// whose leading columns are the constant ones — (ST1) reaches it without
/// the scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection {
    /// The constants, by column.
    pub constants: Vec<Value>,
    /// The constant columns, ascending, then the variable columns,
    /// ascending: the column order of the index to descend. Its section
    /// at `constants` ([`FlatIndex::section`](wcoj_storage::FlatIndex::section))
    /// lists the variable columns in lexicographic order — row for row
    /// what [`Subgoal::reduce`] returns.
    pub columns: Vec<usize>,
    /// The reduced relation's schema: the variables, by column — as
    /// [`Subgoal::reduce`] has it.
    pub schema: Schema,
}

impl Selection {
    /// The selection `terms` describe; `None` when a variable repeats
    /// (the equality needs [`Subgoal::reduce`]'s scan).
    #[must_use]
    pub fn of(terms: &[Term]) -> Option<Selection> {
        let (mut constants, mut columns) = (Vec::new(), Vec::new());
        let (mut vars, mut var_columns) = (Vec::new(), Vec::new());
        for (column, t) in terms.iter().enumerate() {
            match *t {
                Term::Const(c) => {
                    constants.push(c);
                    columns.push(column);
                }
                Term::Var(v) => {
                    vars.push(Attr(v));
                    var_columns.push(column);
                }
            }
        }
        columns.extend(var_columns);
        Some(Selection {
            constants,
            columns,
            schema: Schema::new(vars).ok()?,
        })
    }
}

/// The §7.3 reduction of a whole query: one reduced relation per subgoal,
/// ready for any natural-join engine ([`crate::join`], or a
/// [`PreparedQuery`](crate::nprr::PreparedQuery) submitted to the
/// `wcoj-service` pool).
///
/// # Errors
/// [`QueryError::EmptyQuery`] when no subgoals are given.
pub fn reduce_all(subgoals: &[Subgoal]) -> Result<Vec<Relation>, QueryError> {
    if subgoals.is_empty() {
        return Err(QueryError::EmptyQuery);
    }
    Ok(subgoals.iter().map(Subgoal::reduce).collect())
}

/// Evaluates a full conjunctive query: reduce every subgoal, then join.
/// The output schema has one attribute per variable (`Attr(v)`), sorted.
///
/// # Errors
/// Propagates join-evaluation errors.
pub fn evaluate(subgoals: &[Subgoal]) -> Result<Relation, QueryError> {
    // A subgoal with only constants reduces to a nullary relation: true if
    // some row matched, false otherwise. `join` handles both.
    crate::join(&reduce_all(subgoals)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(schema: &[u32], rows: &[&[u32]]) -> Relation {
        Relation::from_u32_rows(Schema::of(schema), rows)
    }

    #[test]
    fn constants_select() {
        // R(x, 5): keep rows with second column 5.
        let r = rel(&[0, 1], &[&[1, 5], &[2, 6], &[3, 5]]);
        let g = Subgoal::new(r, vec![Term::Var(0), Term::Const(Value(5))]).unwrap();
        let red = g.reduce();
        assert_eq!(red.schema(), &Schema::of(&[0]));
        assert_eq!(red.len(), 2);
        assert!(red.contains_row(&[Value(1)]));
        assert!(red.contains_row(&[Value(3)]));
    }

    #[test]
    fn repeated_variables_filter() {
        // R(x, x): diagonal.
        let r = rel(&[0, 1], &[&[1, 1], &[1, 2], &[3, 3]]);
        let g = Subgoal::new(r, vec![Term::Var(0), Term::Var(0)]).unwrap();
        let red = g.reduce();
        assert_eq!(red.arity(), 1);
        assert_eq!(red.len(), 2); // {1, 3}
    }

    #[test]
    fn arity_checked() {
        let r = rel(&[0, 1], &[&[1, 1]]);
        assert!(Subgoal::new(r, vec![Term::Var(0)]).is_err());
    }

    #[test]
    fn same_relation_twice_with_different_variables() {
        // q(x,y,z) :- E(x,y), E(y,z): paths of length 2 in one edge set.
        let e = rel(&[0, 1], &[&[1, 2], &[2, 3], &[3, 1]]);
        let g1 = Subgoal::new(e.clone(), vec![Term::Var(0), Term::Var(1)]).unwrap();
        let g2 = Subgoal::new(e, vec![Term::Var(1), Term::Var(2)]).unwrap();
        let out = evaluate(&[g1, g2]).unwrap();
        assert_eq!(out.len(), 3); // 1→2→3, 2→3→1, 3→1→2
        assert!(out.contains_row(&[Value(1), Value(2), Value(3)]));
    }

    #[test]
    fn triangle_on_one_edge_relation() {
        // q(x,y,z) :- E(x,y), E(y,z), E(x,z) — triangle listing via the
        // general machinery, with all three subgoals on the same relation.
        let e = rel(&[0, 1], &[&[1, 2], &[2, 3], &[1, 3], &[3, 4]]);
        let g = |a: u32, b: u32| Subgoal::new(e.clone(), vec![Term::Var(a), Term::Var(b)]).unwrap();
        let out = evaluate(&[g(0, 1), g(1, 2), g(0, 2)]).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains_row(&[Value(1), Value(2), Value(3)]));
    }

    #[test]
    fn all_constant_subgoal_is_boolean() {
        let r = rel(&[0, 1], &[&[1, 5]]);
        let hit = Subgoal::new(
            r.clone(),
            vec![Term::Const(Value(1)), Term::Const(Value(5))],
        )
        .unwrap();
        let miss = Subgoal::new(
            r.clone(),
            vec![Term::Const(Value(9)), Term::Const(Value(9))],
        )
        .unwrap();
        let open = Subgoal::new(r, vec![Term::Var(0), Term::Var(1)]).unwrap();
        // true-subgoal leaves the query unchanged
        let with_true = evaluate(&[open.clone(), hit]).unwrap();
        assert_eq!(with_true.len(), 1);
        // false-subgoal empties it
        let with_false = evaluate(&[open, miss]).unwrap();
        assert!(with_false.is_empty());
    }

    #[test]
    fn mixed_constants_and_repeats() {
        // R(x, x, 7): both behaviours at once.
        let r = rel(
            &[0, 1, 2],
            &[&[1, 1, 7], &[2, 2, 8], &[3, 4, 7], &[5, 5, 7]],
        );
        let g = Subgoal::new(r, vec![Term::Var(0), Term::Var(0), Term::Const(Value(7))]).unwrap();
        let red = g.reduce();
        assert_eq!(red.len(), 2); // x ∈ {1, 5}
    }

    #[test]
    fn empty_query_rejected() {
        assert!(matches!(evaluate(&[]), Err(QueryError::EmptyQuery)));
    }
}
