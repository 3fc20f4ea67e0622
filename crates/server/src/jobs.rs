//! The server-side job table: submitted queries waiting for their rows
//! to be fetched, keyed by a monotonically increasing id.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use wcoj_query::PendingQuery;

/// The job table holds at most this many entries (see [`Jobs::insert`]),
/// so a client that submits and never fetches cannot grow it without
/// bound.
pub(crate) const MAX_JOBS: usize = 256;

/// A job still waiting for its fetch, or still marked as streaming, this
/// long after it got there counts as abandoned: its client crashed or
/// gave up between the `202` and the `GET`, or the handler streaming it
/// died. A full table evicts such a job to make room (see
/// [`Jobs::insert`]), so abandoned jobs cannot refuse every later
/// submission.
pub(crate) const ABANDONED_AFTER: Duration = Duration::from_secs(30);

/// One submitted query's lifecycle.
pub enum Job {
    /// Submitted; rows not yet requested. Holds the live handle — if the
    /// table is dropped, the handle's drop cancels any still-queued
    /// shards and frees the admission slot. A Datalog
    /// program's result, materialized in-process, waits here too, as a
    /// ready one-batch [`PendingQuery`].
    Pending {
        /// The live query handle. Its plan holds `Arc`s on every base,
        /// delta and index it reads, so catalog mutations after admission
        /// cannot touch its rows, and nothing else of the catalog is
        /// kept alive.
        query: PendingQuery,
        /// When the job was submitted.
        since: Instant,
    },
    /// A `/rows` fetch is in progress on some connection thread; a
    /// second concurrent fetch is refused (`409`).
    Streaming {
        /// When the fetch began.
        since: Instant,
    },
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

    /// Inserts a job, returning its id. At the cap it first evicts the
    /// oldest job whose rows nobody can still fetch ([`Job::Done`] /
    /// [`Job::Failed`]), then the oldest abandoned one (pending or
    /// streaming for `ABANDONED_AFTER`, 30 s; evicting it cancels its
    /// query). When every entry is live and younger than that it
    /// refuses: it returns `None` and drops the job, which cancels its
    /// query, so the caller answers `429` instead of a live job's client
    /// later getting a `404`.
    pub fn insert(&self, job: Job) -> Option<u64> {
        self.insert_at(job, Instant::now())
    }

    /// [`Jobs::insert`] with the clock read at `now`.
    fn insert_at(&self, job: Job, now: Instant) -> Option<u64> {
        let mut map = self.lock();
        if map.len() >= MAX_JOBS {
            let settled = |job: &Job| matches!(job, Job::Done { .. } | Job::Failed { .. });
            let abandoned = |job: &Job| match job {
                Job::Pending { since, .. } | Job::Streaming { since } => {
                    now.saturating_duration_since(*since) >= ABANDONED_AFTER
                }
                Job::Done { .. } | Job::Failed { .. } => false,
            };
            let oldest = |evictable: &dyn Fn(&Job) -> bool| {
                map.iter()
                    .find_map(|(&id, job)| evictable(job).then_some(id))
            };
            let Some(victim) = oldest(&settled).or_else(|| oldest(&abandoned)) else {
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

    /// Replaces job `id`'s entry with its outcome, if the entry is still
    /// there: a fetch that outlived `ABANDONED_AFTER` may have been
    /// evicted, and re-adding it would grow the table past the cap.
    pub fn settle(&self, id: u64, outcome: Job) {
        if let Some(job) = self.lock().get_mut(&id) {
            *job = outcome;
        }
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

    /// Inserts a job the table has room for.
    fn admit(jobs: &Jobs, job: Job) -> u64 {
        jobs.insert(job).expect("the table had room")
    }

    /// A job submitted at `since` whose rows nobody has fetched yet.
    fn unfetched_at(since: Instant) -> Job {
        Job::Pending {
            query: PendingQuery::materialized(QueryResult {
                relation: Relation::unit(),
                columns: vec![],
            }),
            since,
        }
    }

    fn done() -> Job {
        Job::Done {
            columns: vec![],
            rows: 0,
        }
    }

    #[test]
    fn eviction_drops_the_oldest_jobs() {
        let jobs = Jobs::new();
        let first = admit(&jobs, done());
        for _ in 0..MAX_JOBS {
            admit(&jobs, done());
        }
        assert_eq!(jobs.len(), MAX_JOBS);
        assert!(jobs.with(|m| !m.contains_key(&first)), "oldest evicted");
    }

    #[test]
    fn eviction_spares_jobs_still_waiting_for_their_fetch() {
        let now = Instant::now();
        let unfetched = || unfetched_at(now);
        let jobs = Jobs::new();
        let waiting = admit(&jobs, unfetched());
        for _ in 0..2 * MAX_JOBS {
            admit(&jobs, done());
        }
        assert_eq!(jobs.len(), MAX_JOBS);
        assert!(
            jobs.with(|m| m.contains_key(&waiting)),
            "settled jobs go first, however old the waiting one is"
        );
        // A table of nothing but waiting jobs stays bounded by refusing
        // new ones: every job already waiting, the oldest too, survives.
        let mut refused = 0;
        for _ in 0..2 * MAX_JOBS {
            refused += usize::from(jobs.insert(unfetched()).is_none());
        }
        assert_eq!(jobs.len(), MAX_JOBS);
        assert_eq!(refused, MAX_JOBS + 1, "settled jobs made room first");
        assert!(jobs.with(|m| m.contains_key(&waiting)));
    }

    #[test]
    fn a_full_table_evicts_abandoned_jobs_instead_of_refusing_forever() {
        let t0 = Instant::now();
        let later = t0 + ABANDONED_AFTER;
        let jobs = Jobs::new();
        // What a handler that died mid-stream leaves behind.
        let stuck = admit(&jobs, Job::Streaming { since: t0 });
        let ids: Vec<u64> = (1..MAX_JOBS)
            .map(|_| admit(&jobs, unfetched_at(t0)))
            .collect();
        assert!(
            jobs.insert_at(unfetched_at(t0), t0).is_none(),
            "all live, all young"
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
        assert!(jobs.with(|m| !m.contains_key(&stuck) && m.contains_key(&ids[0])));
        jobs.insert_at(unfetched_at(later), later)
            .expect("evicted another");
        assert!(jobs.with(|m| !m.contains_key(&ids[0]) && m.contains_key(&ids[1])));

        // A settled job still goes before an abandoned one.
        jobs.with(|m| m.insert(ids[5], done()));
        jobs.insert_at(unfetched_at(later), later)
            .expect("evicted the settled job");
        assert!(jobs.with(|m| !m.contains_key(&ids[5]) && m.contains_key(&ids[1])));
        // Jobs submitted at `later` are not abandoned at `later`.
        assert_eq!(jobs.with(|m| m.range(fresh..).count()), 3);

        // The evicted stream settles without re-entering the table.
        jobs.settle(stuck, done());
        assert_eq!(jobs.len(), MAX_JOBS);
        assert!(jobs.with(|m| !m.contains_key(&stuck)));
    }
}
