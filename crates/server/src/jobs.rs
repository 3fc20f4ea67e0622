//! The server-side job table: submitted queries waiting for their rows
//! to be fetched, keyed by a monotonically increasing id.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use wcoj_query::{PendingQuery, Snapshot};

/// Jobs are evicted past this many entries (see [`Jobs::insert`]), so a
/// client that submits and never fetches cannot grow the table without
/// bound.
const MAX_JOBS: usize = 256;

/// One submitted query's lifecycle.
pub enum Job {
    /// Submitted; rows not yet requested. Holds the live handle — if the
    /// job is evicted or the table dropped, the handle's drop cancels
    /// any still-queued shards and frees the admission slot. A Datalog
    /// program's result, materialized in-process, waits here too, as a
    /// ready one-batch [`PendingQuery`].
    Pending {
        /// The live query handle.
        query: PendingQuery,
        /// The copy-on-write catalog snapshot the query was admitted
        /// against, pinned until the rows are fetched so catalog
        /// mutations after admission cannot touch what it reads. `None`
        /// for a program result, which reads no catalog any more.
        snapshot: Option<Arc<Snapshot>>,
    },
    /// A `/rows` fetch is in progress on some connection thread; a
    /// second concurrent fetch is refused (`409`).
    Streaming,
    /// Rows were streamed to completion.
    Done {
        /// Head column names, for the status endpoint.
        columns: Vec<String>,
        /// Total rows that went over the wire.
        rows: u64,
    },
    /// The query (or its row stream) failed.
    Failed {
        /// HTTP status the failure maps to.
        status: u16,
        /// Human-readable message.
        message: String,
    },
}

/// Concurrent job table. A plain mutexed map: every operation is a quick
/// insert/replace — the long-running row streaming happens *outside* the
/// lock after swapping the job to [`Job::Streaming`].
pub struct Jobs {
    next_id: AtomicU64,
    map: Mutex<BTreeMap<u64, Job>>,
}

impl Default for Jobs {
    fn default() -> Self {
        Jobs::new()
    }
}

impl Jobs {
    /// An empty table; ids start at 1.
    #[must_use]
    pub fn new() -> Jobs {
        Jobs {
            next_id: AtomicU64::new(1),
            map: Mutex::new(BTreeMap::new()),
        }
    }

    /// The locked table. A connection thread that panicked while holding
    /// the lock poisons it; the guard is recovered, because every update
    /// is a single `BTreeMap` call that leaves the table valid, and one
    /// dead handler must not take every later request down with it.
    fn lock(&self) -> MutexGuard<'_, BTreeMap<u64, Job>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Inserts a job, returning its id. Past the cap it evicts the oldest
    /// job whose rows nobody can still fetch ([`Job::Done`] /
    /// [`Job::Failed`]), and only when every entry is live the oldest of
    /// those (dropping an evicted [`Job::Pending`] cancels it). Evicting
    /// by age alone turned a client stalled between its `POST` and its
    /// `GET` into a `404` as soon as other clients had submitted 256 more
    /// queries — some 50 ms of traffic on the point workload.
    pub fn insert(&self, job: Job) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut map = self.lock();
        map.insert(id, job);
        while map.len() > MAX_JOBS {
            let settled = |job: &Job| matches!(job, Job::Done { .. } | Job::Failed { .. });
            let victim = map
                .iter()
                .find_map(|(&id, job)| settled(job).then_some(id))
                .unwrap_or_else(|| *map.keys().next().expect("non-empty past cap"));
            map.remove(&victim);
        }
        id
    }

    /// Runs `f` on the locked map (lookups, state swaps). Keep `f` quick.
    pub fn with<R>(&self, f: impl FnOnce(&mut BTreeMap<u64, Job>) -> R) -> R {
        f(&mut self.lock())
    }

    /// Number of live jobs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when no jobs are tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcoj_query::QueryResult;
    use wcoj_storage::Relation;

    #[test]
    fn eviction_drops_the_oldest_jobs() {
        let jobs = Jobs::new();
        let first = jobs.insert(Job::Done {
            columns: vec![],
            rows: 0,
        });
        for _ in 0..MAX_JOBS {
            jobs.insert(Job::Done {
                columns: vec![],
                rows: 0,
            });
        }
        assert_eq!(jobs.len(), MAX_JOBS);
        assert!(jobs.with(|m| !m.contains_key(&first)), "oldest evicted");
    }

    #[test]
    fn eviction_spares_jobs_still_waiting_for_their_fetch() {
        let unfetched = || Job::Pending {
            query: PendingQuery::materialized(QueryResult {
                relation: Relation::unit(),
                columns: vec![],
            }),
            snapshot: None,
        };
        let jobs = Jobs::new();
        let waiting = jobs.insert(unfetched());
        for _ in 0..2 * MAX_JOBS {
            jobs.insert(Job::Done {
                columns: vec![],
                rows: 0,
            });
        }
        assert_eq!(jobs.len(), MAX_JOBS);
        assert!(
            jobs.with(|m| m.contains_key(&waiting)),
            "settled jobs go first, however old the waiting one is"
        );
        // A table of nothing but waiting jobs is still bounded.
        for _ in 0..2 * MAX_JOBS {
            jobs.insert(unfetched());
        }
        assert_eq!(jobs.len(), MAX_JOBS);
        assert!(jobs.with(|m| !m.contains_key(&waiting)));
    }
}
