//! Simple functional dependencies (paper §7.3).
//!
//! A simple FD `e.u → e.v` promises that within relation `R_e`, the value
//! of attribute `u` determines the value of attribute `v`. The paper's
//! FD-aware join first **expands** relations along FD closures — relation
//! `R_f` containing `u` gains column `v` by joining with the *functional*
//! two-column projection `π_{u,v}(R_e)` (size unchanged, because the
//! projection is a partial function) — and then runs the ordinary
//! worst-case-optimal join, whose cover LP now sees fatter hyperedges and
//! can produce dramatically smaller AGM bounds (the paper's `N² vs N^k`
//! family, reproduced as experiment E12).
//!
//! Soundness note (the paper is terse here): extending `R_f` with
//! `π_{u,v}(R_e)` may *drop* rows of `R_f` whose `u`-value never occurs in
//! `R_e`. That is harmless **because `R_e` itself is one of the query's
//! relations**: any join result must pick a row of `R_e`, so those dropped
//! rows of `R_f` could never contribute. The tests verify the expanded
//! join equals the unexpanded one on random instances.

use std::fmt;
use wcoj_core::nprr::PreparedQuery;
use wcoj_core::{JoinOutput, JoinQuery, QueryError};
use wcoj_storage::hash::{map_with_capacity, FxHashMap};
use wcoj_storage::ops::{natural_join, project};
use wcoj_storage::{Attr, Relation, Value};

/// A simple functional dependency `relations[edge].from → .to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fd {
    /// Index of the declaring relation.
    pub edge: usize,
    /// Determining attribute.
    pub from: Attr,
    /// Determined attribute.
    pub to: Attr,
}

/// FD-specific failures.
#[derive(Debug, Clone, PartialEq)]
pub enum FdError {
    /// The FD references a relation index out of range.
    BadEdge(usize),
    /// The declaring relation lacks the `from`/`to` attribute.
    MissingAttr(Attr),
    /// The data violates the dependency (one `from`-value maps to two
    /// different `to`-values).
    Violated {
        /// The FD that failed.
        fd: Fd,
        /// The offending key value.
        key: Value,
    },
}

impl fmt::Display for FdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FdError::BadEdge(e) => write!(f, "FD references unknown relation {e}"),
            FdError::MissingAttr(a) => write!(f, "FD attribute {a:?} not in its relation"),
            FdError::Violated { fd, key } => {
                write!(
                    f,
                    "functional dependency {:?}→{:?} violated at key {key}",
                    fd.from, fd.to
                )
            }
        }
    }
}
impl std::error::Error for FdError {}

/// Validates `fds` against the data and returns, per FD, the functional
/// mapping relation `π_{from,to}(R_edge)`.
///
/// # Errors
/// [`FdError`] as described on its variants.
pub fn fd_maps(relations: &[Relation], fds: &[Fd]) -> Result<Vec<Relation>, FdError> {
    let mut out = Vec::with_capacity(fds.len());
    for fd in fds {
        let rel = relations.get(fd.edge).ok_or(FdError::BadEdge(fd.edge))?;
        let fpos = rel
            .schema()
            .position(fd.from)
            .ok_or(FdError::MissingAttr(fd.from))?;
        let tpos = rel
            .schema()
            .position(fd.to)
            .ok_or(FdError::MissingAttr(fd.to))?;
        let mut seen: FxHashMap<Value, Value> = map_with_capacity(rel.len());
        for row in rel.iter_rows() {
            match seen.insert(row[fpos], row[tpos]) {
                Some(prev) if prev != row[tpos] => {
                    return Err(FdError::Violated {
                        fd: *fd,
                        key: row[fpos],
                    });
                }
                _ => {}
            }
        }
        let map = project(rel, &[fd.from, fd.to]).expect("attrs verified present");
        out.push(map);
    }
    Ok(out)
}

/// Expands every relation along the FD closure: while some relation has an
/// FD's `from` but not its `to`, join in the functional map (breadth-first
/// walk of the FD graph, paper §7.3).
///
/// # Errors
/// [`FdError`] from validation.
pub fn expand(relations: &[Relation], fds: &[Fd]) -> Result<Vec<Relation>, FdError> {
    let maps = fd_maps(relations, fds)?;
    let mut out: Vec<Relation> = relations.to_vec();
    for rel in &mut out {
        loop {
            let mut changed = false;
            for (fd, map) in fds.iter().zip(&maps) {
                if rel.schema().contains(fd.from) && !rel.schema().contains(fd.to) {
                    *rel = natural_join(rel, map);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }
    Ok(out)
}

/// FD-aware worst-case optimal join: expand, then evaluate. The output
/// schema is unchanged (FD targets already occur in the query).
///
/// # Errors
/// [`QueryError`] wrapping FD validation or evaluation failures.
pub fn join_with_fds(relations: &[Relation], fds: &[Fd]) -> Result<JoinOutput, QueryError> {
    let expanded =
        expand(relations, fds).map_err(|e| QueryError::BadCover(format!("FD error: {e}")))?;
    PreparedQuery::new(&expanded)?.evaluate(None)
}

/// The AGM `log₂` bound of the query *after* FD expansion — used by the
/// E12 experiment to show the bound collapsing from `N^k` to `N²`.
///
/// # Errors
/// [`QueryError`] wrapping FD validation or LP failures.
pub fn expanded_log2_bound(relations: &[Relation], fds: &[Fd]) -> Result<f64, QueryError> {
    let expanded =
        expand(relations, fds).map_err(|e| QueryError::BadCover(format!("FD error: {e}")))?;
    let q = JoinQuery::new(&expanded)?;
    Ok(q.optimal_cover()?.log2_bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcoj_core::naive;
    use wcoj_storage::ops::reorder;
    use wcoj_storage::Schema;

    fn rel(schema: &[u32], rows: &[&[u32]]) -> Relation {
        Relation::from_u32_rows(Schema::of(schema), rows)
    }

    #[test]
    fn fd_validation() {
        let r = rel(&[0, 1], &[&[1, 10], &[2, 20]]);
        let ok = Fd {
            edge: 0,
            from: Attr(0),
            to: Attr(1),
        };
        assert!(fd_maps(std::slice::from_ref(&r), &[ok]).is_ok());

        let bad_data = rel(&[0, 1], &[&[1, 10], &[1, 20]]);
        assert!(matches!(
            fd_maps(&[bad_data], &[ok]),
            Err(FdError::Violated { .. })
        ));
        assert!(matches!(
            fd_maps(std::slice::from_ref(&r), &[Fd { edge: 5, ..ok }]),
            Err(FdError::BadEdge(5))
        ));
        assert!(matches!(
            fd_maps(
                &[r],
                &[Fd {
                    edge: 0,
                    from: Attr(9),
                    to: Attr(1)
                }]
            ),
            Err(FdError::MissingAttr(Attr(9)))
        ));
    }

    #[test]
    fn expansion_adds_closure_columns() {
        // R1(A,B1) with A→B1 declared on R1; R2(A,B2) with A→B2 on R2.
        // Expanding R1 along A→B2 adds the B2 column.
        let r1 = rel(&[0, 1], &[&[1, 10], &[2, 20]]);
        let r2 = rel(&[0, 2], &[&[1, 11], &[2, 21]]);
        let fds = [
            Fd {
                edge: 0,
                from: Attr(0),
                to: Attr(1),
            },
            Fd {
                edge: 1,
                from: Attr(0),
                to: Attr(2),
            },
        ];
        let ex = expand(&[r1, r2], &fds).unwrap();
        assert!(ex[0].schema().contains(Attr(2)));
        assert!(ex[1].schema().contains(Attr(1)));
        assert_eq!(ex[0].len(), 2, "functional join preserves cardinality");
        assert!(ex[0].contains_row(&[Value(1), Value(10), Value(11)]));
    }

    #[test]
    fn chained_fds_close_transitively() {
        // A→B on R1(A,B); B→C on R2(B,C): R3(A,D) closes to {A,D,B,C}.
        let r1 = rel(&[0, 1], &[&[1, 10], &[2, 20]]);
        let r2 = rel(&[1, 2], &[&[10, 100], &[20, 200]]);
        let r3 = rel(&[0, 3], &[&[1, 7], &[2, 8]]);
        let fds = [
            Fd {
                edge: 0,
                from: Attr(0),
                to: Attr(1),
            },
            Fd {
                edge: 1,
                from: Attr(1),
                to: Attr(2),
            },
        ];
        let ex = expand(&[r1, r2, r3], &fds).unwrap();
        assert!(ex[2].schema().contains(Attr(1)));
        assert!(ex[2].schema().contains(Attr(2)));
        assert_eq!(ex[2].len(), 2);
    }

    #[test]
    fn fd_join_equals_plain_join() {
        // The paper's k = 3 family, small: Rᵢ(A,Bᵢ), Sᵢ(Bᵢ,C), A→Bᵢ.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for trial in 0..5 {
            let n = 20usize;
            let k = 3u32;
            let mut rels = Vec::new();
            let mut fds = Vec::new();
            // Rᵢ(A=0, Bᵢ=i): A determines Bᵢ via bᵢ(a) = a*k + i (functional).
            for i in 0..k {
                let rows: Vec<Vec<Value>> = (0..n as u64)
                    .map(|a| vec![Value(a), Value(a * u64::from(k) + u64::from(i))])
                    .collect();
                rels.push(Relation::from_rows(Schema::of(&[0, i + 1]), rows).unwrap());
                fds.push(Fd {
                    edge: i as usize,
                    from: Attr(0),
                    to: Attr(i + 1),
                });
            }
            // Sᵢ(Bᵢ, C): random.
            for i in 0..k {
                let rows: Vec<Vec<Value>> = (0..n)
                    .map(|_| {
                        vec![
                            Value(rng.gen_range(0..(n as u64) * u64::from(k))),
                            Value(rng.gen_range(0..6u64)),
                        ]
                    })
                    .collect();
                rels.push(Relation::from_rows(Schema::of(&[i + 1, k + 1]), rows).unwrap());
            }
            let fd_out = join_with_fds(&rels, &fds).unwrap();
            let plain = naive::join(&rels);
            let plain = reorder(&plain, fd_out.relation.schema()).unwrap();
            assert_eq!(fd_out.relation, plain, "trial {trial}");
        }
    }

    #[test]
    fn fd_bound_improves() {
        // With FDs A→Bᵢ, the expanded R₁ becomes R'(A,B1..Bk) and the LP
        // bound collapses; without them the bound is ~N^k for the Sᵢ half.
        let k = 3u32;
        let n = 64usize;
        let mut rels = Vec::new();
        let mut fds = Vec::new();
        for i in 0..k {
            let rows: Vec<Vec<Value>> = (0..n as u64)
                .map(|a| vec![Value(a), Value(a * u64::from(k) + u64::from(i))])
                .collect();
            rels.push(Relation::from_rows(Schema::of(&[0, i + 1]), rows).unwrap());
            fds.push(Fd {
                edge: i as usize,
                from: Attr(0),
                to: Attr(i + 1),
            });
        }
        for i in 0..k {
            let rows: Vec<Vec<Value>> = (0..n as u64)
                .map(|b| vec![Value(b), Value(b % 4)])
                .collect();
            rels.push(Relation::from_rows(Schema::of(&[i + 1, k + 1]), rows).unwrap());
        }
        let q = JoinQuery::new(&rels).unwrap();
        let plain_bound = q.optimal_cover().unwrap().log2_bound;
        let fd_bound = expanded_log2_bound(&rels, &fds).unwrap();
        assert!(
            fd_bound < plain_bound - 1.0,
            "FD-aware bound {fd_bound} should beat {plain_bound}"
        );
    }
}
