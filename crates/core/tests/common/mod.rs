//! Helpers shared by this crate's integration tests.

use std::sync::Arc;
use wcoj_core::nprr::PreparedQuery;
use wcoj_core::JoinQuery;
use wcoj_storage::{DeltaRelation, FlatIndex, Relation, Value};

/// How [`over_delta`] spreads each relation over a base and its buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(dead_code)] // each test binary uses its own subset
pub enum Buffers {
    /// Every row in the base, both buffers empty.
    Empty,
    /// Every other row in the base and the rest inserted, plus a few rows
    /// outside the data in the base and deleted again: every component is
    /// non-empty, and the merge touches every level.
    Live,
    /// All rows but two in the base, those two inserted and one outsider
    /// deleted: the merge touches only their paths.
    Sparse,
}

/// `rels` served the way the server serves them: one index per relation
/// over its merged view ([`DeltaRelation::index`]; the base's own with
/// empty buffers), laid out as `buffers` says. The merged view is exactly
/// `rels` in every layout.
pub fn over_delta(rels: &[Relation], buffers: Buffers) -> PreparedQuery<Arc<FlatIndex>> {
    let deltas: Vec<DeltaRelation> = rels
        .iter()
        .map(|rel| {
            if buffers == Buffers::Empty || rel.is_empty() {
                return DeltaRelation::new(rel.clone());
            }
            let rows: Vec<Vec<Value>> = rel.iter_rows().map(<[Value]>::to_vec).collect();
            let n_outsiders = if buffers == Buffers::Live { 3 } else { 1 };
            let outsiders: Vec<Vec<Value>> = (0..n_outsiders)
                .map(|j| {
                    let mut row = rows[j as usize * rows.len() / 3].clone();
                    let at = j as usize % row.len();
                    row[at] = Value(u64::MAX - j);
                    row
                })
                .collect();
            let in_base = |i: usize| match buffers {
                Buffers::Live => i.is_multiple_of(2),
                _ => i != 0 && i != rows.len() / 2,
            };
            let base = (0..rows.len())
                .filter(|&i| in_base(i))
                .map(|i| rows[i].clone())
                .chain(outsiders.iter().cloned())
                .collect();
            let mut d =
                DeltaRelation::new(Relation::from_rows(rel.schema().clone(), base).unwrap());
            d.insert_rows(&rows).unwrap();
            d.delete_rows(&outsiders).unwrap();
            d
        })
        .collect();
    let stale: Vec<Relation> = deltas.iter().map(|d| (**d.base()).clone()).collect();
    let sizes = deltas.iter().map(DeltaRelation::len).collect();
    let q = Arc::new(JoinQuery::new(&stale).unwrap());
    PreparedQuery::from_shared(q, Some(sizes), |i, order| deltas[i].index(order)).unwrap()
}
