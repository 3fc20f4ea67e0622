//! Binary join-plan trees and an instrumented executor.
//!
//! §6 of the paper proves lower bounds on **join-project plans**: plan
//! trees whose internal nodes are binary natural joins, optionally followed
//! by projections. [`JoinPlan`] represents exactly that class;
//! [`execute`] evaluates a plan and records the *maximum intermediate
//! cardinality* — on the Lemma 6.1 instances every such plan must
//! materialise an `Ω(N²/n²)` intermediate no matter its shape, which is
//! what experiment E7 measures. Every binary join is
//! [`natural_join`], the hash join `wcoj_core::naive` folds.

use wcoj_storage::ops::{natural_join, project};
use wcoj_storage::{Attr, Relation, StorageError};

/// A join-project plan over input relations referenced by index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinPlan {
    /// Scan input relation `i`.
    Leaf(usize),
    /// Natural join of two sub-plans, optionally projecting the result.
    Join {
        /// Left input.
        left: Box<JoinPlan>,
        /// Right input.
        right: Box<JoinPlan>,
        /// Optional projection applied to the join result (the "project"
        /// in join-project plans). `None` keeps all attributes.
        project_to: Option<Vec<Attr>>,
    },
}

impl JoinPlan {
    /// A left-deep join-only plan over the given leaf order.
    ///
    /// # Panics
    /// Panics on an empty order.
    #[must_use]
    pub fn left_deep(order: &[usize]) -> JoinPlan {
        assert!(!order.is_empty(), "left_deep needs at least one leaf");
        let mut plan = JoinPlan::Leaf(order[0]);
        for &i in &order[1..] {
            plan = JoinPlan::Join {
                left: Box::new(plan),
                right: Box::new(JoinPlan::Leaf(i)),
                project_to: None,
            };
        }
        plan
    }

    /// Leaf indices used by this plan, in-order.
    #[must_use]
    pub fn leaves(&self) -> Vec<usize> {
        match self {
            JoinPlan::Leaf(i) => vec![*i],
            JoinPlan::Join { left, right, .. } => {
                let mut l = left.leaves();
                l.extend(right.leaves());
                l
            }
        }
    }
}

/// Execution statistics of a plan run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Largest intermediate (or final) relation materialised.
    pub max_intermediate: usize,
    /// Sum of all intermediate cardinalities (total tuples touched).
    pub total_tuples: usize,
    /// Number of binary joins executed.
    pub joins: usize,
}

/// Executes `plan` over `relations`, recording statistics.
///
/// # Errors
/// [`StorageError`] from projections referencing missing attributes.
pub fn execute(
    plan: &JoinPlan,
    relations: &[Relation],
) -> Result<(Relation, ExecStats), StorageError> {
    let mut stats = ExecStats::default();
    let rel = run(plan, relations, &mut stats)?;
    Ok((rel, stats))
}

fn run(
    plan: &JoinPlan,
    relations: &[Relation],
    stats: &mut ExecStats,
) -> Result<Relation, StorageError> {
    match plan {
        JoinPlan::Leaf(i) => Ok(relations[*i].clone()),
        JoinPlan::Join {
            left,
            right,
            project_to,
        } => {
            let l = run(left, relations, stats)?;
            let r = run(right, relations, stats)?;
            let j = natural_join(&l, &r);
            stats.joins += 1;
            stats.max_intermediate = stats.max_intermediate.max(j.len());
            stats.total_tuples += j.len();
            match project_to {
                None => Ok(j),
                Some(attrs) => {
                    let p = project(&j, attrs)?;
                    stats.max_intermediate = stats.max_intermediate.max(p.len());
                    Ok(p)
                }
            }
        }
    }
}

/// Convenience: execute the left-deep plan over `order`.
///
/// # Errors
/// [`StorageError`] (none for join-only plans).
pub fn execute_left_deep(
    relations: &[Relation],
    order: &[usize],
) -> Result<(Relation, ExecStats), StorageError> {
    execute(&JoinPlan::left_deep(order), relations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use wcoj_core::naive;
    use wcoj_storage::ops::reorder;
    use wcoj_storage::{Schema, Value};

    fn rel(schema: &[u32], rows: &[&[u32]]) -> Relation {
        Relation::from_u32_rows(Schema::of(schema), rows)
    }

    fn triangle() -> Vec<Relation> {
        vec![
            rel(&[0, 1], &[&[1, 2], &[1, 3], &[2, 3]]),
            rel(&[1, 2], &[&[2, 4], &[3, 4]]),
            rel(&[0, 2], &[&[1, 4], &[2, 4]]),
        ]
    }

    #[test]
    fn left_deep_shapes() {
        let p = JoinPlan::left_deep(&[2, 0, 1]);
        assert_eq!(p.leaves(), vec![2, 0, 1]);
    }

    #[test]
    fn execute_triangle() {
        let rels = triangle();
        let p = JoinPlan::left_deep(&[0, 1, 2]);
        let (h, hs) = execute(&p, &rels).unwrap();
        assert_eq!(hs.joins, 2);
        assert!(hs.max_intermediate >= h.len());
        assert_eq!(h.len(), 3); // (1,2,4),(1,3,4),(2,3,4)
        assert!(h.contains_row(&[Value(1), Value(2), Value(4)]));
    }

    #[test]
    fn bushy_plan() {
        // ((R ⋈ S) ⋈ (T ⋈ U)) over a 4-chain.
        let rels = vec![
            rel(&[0, 1], &[&[1, 2]]),
            rel(&[1, 2], &[&[2, 3]]),
            rel(&[2, 3], &[&[3, 4]]),
            rel(&[3, 4], &[&[4, 5]]),
        ];
        let plan = JoinPlan::Join {
            left: Box::new(JoinPlan::Join {
                left: Box::new(JoinPlan::Leaf(0)),
                right: Box::new(JoinPlan::Leaf(1)),
                project_to: None,
            }),
            right: Box::new(JoinPlan::Join {
                left: Box::new(JoinPlan::Leaf(2)),
                right: Box::new(JoinPlan::Leaf(3)),
                project_to: None,
            }),
            project_to: None,
        };
        let (out, stats) = execute(&plan, &rels).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.arity(), 5);
        assert_eq!(stats.joins, 3);
    }

    #[test]
    fn projections_tracked() {
        let rels = triangle();
        let plan = JoinPlan::Join {
            left: Box::new(JoinPlan::Leaf(0)),
            right: Box::new(JoinPlan::Leaf(1)),
            project_to: Some(vec![Attr(0), Attr(2)]),
        };
        let (out, stats) = execute(&plan, &rels).unwrap();
        assert_eq!(out.arity(), 2);
        assert!(stats.max_intermediate >= out.len());
        // projecting to a missing attr errors
        let bad = JoinPlan::Join {
            left: Box::new(JoinPlan::Leaf(0)),
            right: Box::new(JoinPlan::Leaf(1)),
            project_to: Some(vec![Attr(9)]),
        };
        assert!(execute(&bad, &rels).is_err());
    }

    fn random_rel(rng: &mut StdRng, attrs: &[u32], n: usize, lo: u64, hi: u64) -> Relation {
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|_| attrs.iter().map(|_| Value(rng.gen_range(lo..hi))).collect())
            .collect();
        Relation::from_rows(Schema::of(attrs), rows).unwrap()
    }

    #[test]
    fn input_order_left_deep_is_what_naive_folds() {
        // The harness's `binary_ms` (e3, e4, e9, e10) times this plan as
        // "what `naive::join` folds": the same relation, whatever the
        // shape, and also when an intermediate empties before the last
        // input is joined.
        let shapes: &[&[&[u32]]] = &[
            &[&[0, 1], &[1, 2], &[0, 2]],
            &[&[0, 1], &[1, 2], &[2, 3], &[3, 0]],
            &[&[0, 1], &[0, 2], &[0, 3]],
            &[&[0, 1, 2], &[2, 3], &[0, 3]],
            &[&[0], &[1], &[0, 1]],
        ];
        let mut rng = StdRng::seed_from_u64(46);
        for (k, shape) in shapes.iter().enumerate() {
            for trial in 0..4 {
                let rels: Vec<Relation> = shape
                    .iter()
                    .map(|attrs| random_rel(&mut rng, attrs, 30, 0, 6))
                    .collect();
                let order: Vec<usize> = (0..rels.len()).collect();
                let (binary, _) = execute_left_deep(&rels, &order).unwrap();
                let folded = naive::join(&rels);
                let folded = reorder(&folded, binary.schema()).unwrap();
                assert_eq!(binary, folded, "shape {k} trial {trial}");
            }
        }
        // R(0,1) and S(1,2) draw attribute 1 from disjoint ranges, so
        // R ⋈ S is empty and `naive::join` stops before T.
        let rels = vec![
            random_rel(&mut rng, &[0, 1], 20, 0, 5),
            random_rel(&mut rng, &[1, 2], 20, 5, 10),
            random_rel(&mut rng, &[0, 2], 20, 0, 10),
        ];
        let (binary, stats) = execute_left_deep(&rels, &[0, 1, 2]).unwrap();
        assert!(binary.is_empty());
        assert_eq!(stats.max_intermediate, 0);
        let folded = naive::join(&rels);
        assert_eq!(binary, reorder(&folded, binary.schema()).unwrap());
    }

    #[test]
    fn max_intermediate_sees_blowup() {
        // Example 2.2 shape at N = 8: R ⋈ S is N²/4 + N/2 = 20.
        let n = 8u64;
        let rows: Vec<Vec<Value>> = (1..=n / 2)
            .map(|j| vec![Value(0), Value(j)])
            .chain((1..=n / 2).map(|j| vec![Value(j), Value(0)]))
            .collect();
        let rels = vec![
            Relation::from_rows(Schema::of(&[0, 1]), rows.clone()).unwrap(),
            Relation::from_rows(Schema::of(&[1, 2]), rows.clone()).unwrap(),
            Relation::from_rows(Schema::of(&[0, 2]), rows).unwrap(),
        ];
        let (out, stats) = execute_left_deep(&rels, &[0, 1, 2]).unwrap();
        assert!(out.is_empty());
        assert_eq!(stats.max_intermediate, (n * n / 4 + n / 2) as usize);
    }
}
