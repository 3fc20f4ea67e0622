//! The server-side job table: submitted queries waiting for their rows
//! to be fetched, keyed by a monotonically increasing id. A fetch takes
//! its job out of the table, so the table holds only unfetched queries.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use wcoj_query::PendingQuery;

/// The job table holds at most this many entries (see [`Jobs::insert`]),
/// so a client that submits and never fetches cannot grow it without
/// bound.
pub(crate) const MAX_JOBS: usize = 256;

/// A job still waiting for its fetch this long after its submission
/// counts as abandoned: its client crashed or gave up between the `202`
/// and the `GET`. A full table evicts such a job to make room (see
/// [`Jobs::insert`]), so abandoned jobs cannot refuse every later
/// submission.
pub(crate) const ABANDONED_AFTER: Duration = Duration::from_secs(30);

/// A submitted query whose rows nobody has fetched yet. A Datalog
/// program's result, materialized in-process, waits here too, as a ready
/// one-batch [`PendingQuery`].
pub(crate) struct Job {
    /// The live query handle. Its plan holds `Arc`s on every base, delta
    /// and index it reads, so catalog mutations after admission cannot
    /// touch its rows, and nothing else of the catalog is kept alive.
    /// Dropping it — an eviction, or the table itself — cancels any
    /// still-queued shards and frees the admission slot.
    pub(crate) query: PendingQuery,
    /// When the job was submitted.
    pub(crate) since: Instant,
}

/// Concurrent job table. A plain mutexed map: every operation is one
/// quick map call — the rows stream outside the lock, from the handle
/// [`Jobs::take`] hands over.
pub(crate) struct Jobs {
    next_id: AtomicU64,
    map: Mutex<BTreeMap<u64, Job>>,
}

impl Jobs {
    /// An empty table; ids start at 1.
    pub(crate) fn new() -> Jobs {
        Jobs {
            next_id: AtomicU64::new(1),
            map: Mutex::new(BTreeMap::new()),
        }
    }

    /// The locked table. A connection thread that panicked while holding
    /// the lock poisons it; the guard is recovered, because every update
    /// is a single `BTreeMap` call that leaves the table valid, and one
    /// dead handler must not take every later request down with it.
    pub(crate) fn lock(&self) -> MutexGuard<'_, BTreeMap<u64, Job>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Inserts `query` as a new job, returning its id. At the cap it first
    /// evicts the oldest job abandoned for `ABANDONED_AFTER` (30 s;
    /// evicting it cancels its query). When every entry is younger than
    /// that it refuses: it returns `None` and drops `query`, which cancels
    /// it, so the caller answers `429` instead of a waiting job's client
    /// later getting a `404`.
    pub(crate) fn insert(&self, query: PendingQuery) -> Option<u64> {
        let now = Instant::now();
        self.insert_at(Job { query, since: now }, now)
    }

    /// [`Jobs::insert`] with the clock read at `now`.
    fn insert_at(&self, job: Job, now: Instant) -> Option<u64> {
        let mut map = self.lock();
        if map.len() >= MAX_JOBS {
            let abandoned = map.iter().find_map(|(&id, job)| {
                (now.saturating_duration_since(job.since) >= ABANDONED_AFTER).then_some(id)
            });
            let Some(victim) = abandoned else {
                // The refused job drops after the lock is released.
                drop(map);
                return None;
            };
            map.remove(&victim);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        map.insert(id, job);
        Some(id)
    }

    /// Takes job `id` out of the table and hands its query to the caller,
    /// whose fetch now owns it. `None` when no such job is waiting: the id
    /// is unknown, its rows were already fetched, or it was evicted.
    pub(crate) fn take(&self, id: u64) -> Option<PendingQuery> {
        self.lock().remove(&id).map(|job| job.query)
    }

    /// Number of unfetched jobs.
    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcoj_query::QueryResult;
    use wcoj_storage::Relation;

    /// Inserts a job the table has room for, at its submission time.
    fn admit(jobs: &Jobs, job: Job) -> u64 {
        let now = job.since;
        jobs.insert_at(job, now).expect("the table had room")
    }

    /// `true` while job `id` is in the table.
    fn waiting(jobs: &Jobs, id: u64) -> bool {
        jobs.lock().contains_key(&id)
    }

    /// A job submitted at `since` whose rows nobody has fetched yet.
    fn unfetched_at(since: Instant) -> Job {
        Job {
            query: PendingQuery::materialized(QueryResult {
                relation: Relation::unit(),
                columns: vec![],
            }),
            since,
        }
    }

    #[test]
    fn eviction_spares_jobs_still_waiting_for_their_fetch() {
        let now = Instant::now();
        let jobs = Jobs::new();
        let ids: Vec<u64> = (0..MAX_JOBS)
            .map(|_| admit(&jobs, unfetched_at(now)))
            .collect();
        // A table of nothing but waiting jobs stays bounded by refusing
        // new ones: every job already waiting, the oldest too, survives.
        let mut refused = 0;
        for _ in 0..2 * MAX_JOBS {
            refused += usize::from(jobs.insert_at(unfetched_at(now), now).is_none());
        }
        assert_eq!(refused, 2 * MAX_JOBS);
        assert_eq!(jobs.len(), MAX_JOBS);
        assert!(ids.iter().all(|&id| waiting(&jobs, id)));
    }

    #[test]
    fn a_full_table_evicts_abandoned_jobs_instead_of_refusing_forever() {
        let t0 = Instant::now();
        let later = t0 + ABANDONED_AFTER;
        let jobs = Jobs::new();
        let ids: Vec<u64> = (0..MAX_JOBS)
            .map(|_| admit(&jobs, unfetched_at(t0)))
            .collect();
        assert!(
            jobs.insert_at(unfetched_at(t0), t0).is_none(),
            "all waiting, all young"
        );
        assert!(
            jobs.insert_at(unfetched_at(later), later - Duration::from_millis(1))
                .is_none(),
            "not abandoned a moment before the limit"
        );

        // Once the limit has passed, the oldest abandoned job makes room,
        // one per insert, and only when the table is full.
        let fresh = jobs
            .insert_at(unfetched_at(later), later)
            .expect("evicted one");
        assert_eq!(jobs.len(), MAX_JOBS);
        assert!(!waiting(&jobs, ids[0]) && waiting(&jobs, ids[1]));
        jobs.insert_at(unfetched_at(later), later)
            .expect("evicted another");
        assert!(!waiting(&jobs, ids[1]) && waiting(&jobs, ids[2]));
        // Jobs submitted at `later` are not abandoned at `later`.
        assert_eq!(jobs.lock().range(fresh..).count(), 2);
    }

    #[test]
    fn a_fetch_takes_its_job_out_once() {
        let now = Instant::now();
        let jobs = Jobs::new();
        let ids: Vec<u64> = (0..MAX_JOBS)
            .map(|_| admit(&jobs, unfetched_at(now)))
            .collect();
        assert!(jobs.take(ids[5]).is_some());
        assert!(jobs.take(ids[5]).is_none(), "a job is fetched once");
        assert!(jobs.take(0).is_none(), "ids start at 1");

        // The fetched job's entry makes room without an eviction: every
        // job still waiting survives, and the table is full again.
        jobs.insert_at(unfetched_at(now), now)
            .expect("room left by the fetch");
        assert_eq!(jobs.len(), MAX_JOBS);
        assert!(ids
            .iter()
            .filter(|&&id| id != ids[5])
            .all(|&id| waiting(&jobs, id)));
        assert!(jobs.insert_at(unfetched_at(now), now).is_none());
    }
}
