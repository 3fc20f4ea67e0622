//! Helpers shared by this crate's integration tests.

use std::sync::Arc;
use wcoj_core::nprr::PreparedQuery;
use wcoj_core::JoinQuery;
use wcoj_storage::{DeltaIndex, DeltaRelation, Relation, Value};

/// `rels` served the way the server serves them: one `DeltaIndex` per
/// relation over its base's shared index. With `live`, each base holds
/// every other row plus a few rows outside the data, `ins` holds the rest
/// and `del` the outsiders, so the view is exactly `rels` while every
/// component is non-empty and merged nodes have no contiguous child
/// slice. Without it the buffers are empty.
pub fn over_delta(rels: &[Relation], live: bool) -> PreparedQuery<DeltaIndex> {
    let deltas: Vec<DeltaRelation> = rels
        .iter()
        .map(|rel| {
            if !live {
                return DeltaRelation::new(rel.clone());
            }
            let rows: Vec<Vec<Value>> = rel.iter_rows().map(<[Value]>::to_vec).collect();
            let outsiders: Vec<Vec<Value>> = (0..3u64)
                .map(|j| {
                    let mut row = rows[j as usize * rows.len() / 3].clone();
                    let at = j as usize % row.len();
                    row[at] = Value(u64::MAX - j);
                    row
                })
                .collect();
            let base = rows.iter().step_by(2).chain(&outsiders).cloned().collect();
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
    PreparedQuery::from_shared(q, Some(sizes), |i, order| {
        let d = &deltas[i];
        DeltaIndex::over(d.base_index(order)?, d.ins(), d.del(), order)
    })
    .unwrap()
}
