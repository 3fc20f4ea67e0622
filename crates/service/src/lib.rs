//! # wcoj-service — shared-pool concurrent query scheduler
//!
//! `wcoj-exec` plans how a *single* join splits: root-domain shards of
//! `Recursive-Join` (paper §5.2, step 2a). This crate is the one place
//! such a plan runs in parallel: a [`Service`] owns **one** global worker
//! pool for the whole process, and schedules shard tasks from *many*
//! in-flight queries on it, so concurrent queries share the machine
//! instead of each oversubscribing it. (Sequential evaluation,
//! `PreparedQuery::evaluate` / `join_nprr`, stays the oracle every
//! parallel result is checked against.)
//!
//! * [`Service::submit`] plans a prepared query's shards with the
//!   work-based splitter ([`ShardPlan::plan`] over
//!   [`PreparedQuery::root_candidate_weights`]). The plan is
//!   **two-level**: heavy root values get singleton shards so one hot
//!   key cannot drag its neighbours along, and a value heavy enough to
//!   span several work targets is further broken into *anchor
//!   sub-shards* (`RootShard::anchor` ranges over the level-1 attribute,
//!   [`ExecConfig::heavy_split_factor`]) so even a single hot key
//!   spreads across the pool. Submission pushes the tasks as one
//!   per-query **ring** and returns a [`QueryHandle`] immediately — it
//!   never blocks on other queries.
//! * **Admission control**: [`ServiceConfig::queue_depth`] bounds how
//!   many queries may be admitted-but-unfinished at once (env
//!   `WCOJ_QUEUE_DEPTH` via [`ServiceConfig::from_env`]; `0` =
//!   unbounded). At the bound, [`Service::submit`] *sheds* — it returns
//!   [`SubmitError::Overloaded`] without planning or scheduling anything,
//!   the 429 of this scheduler — while [`Service::submit_blocking`] and
//!   [`Service::try_submit_timeout`] wait on a condvar (optionally with a
//!   deadline) for capacity instead. Either way the queue can no longer
//!   grow without limit under a submission burst.
//! * **Fair dispatch**: workers drain the per-query rings **round-robin,
//!   one task at a time**, so shards of concurrent queries interleave by
//!   construction — a 10k-sub-shard hot-key query no longer
//!   head-of-line-blocks a 3-shard triangle query submitted just after
//!   it. Each task runs the sequential engine restricted to its root
//!   range — and, for a sub-shard, its anchor range —
//!   ([`PreparedQuery::run_shard`]) against the query's shared, immutable
//!   indexes.
//! * [`QueryHandle::wait`] blocks until the query's last shard lands,
//!   then reassembles per-shard row sets **in slot order** — root-value
//!   order, then anchor order within a sub-split root value — and folds
//!   per-shard [`JoinStats`] with [`JoinStats::absorb`] — the output
//!   relation is bit-identical to the sequential
//!   [`join_nprr`](wcoj_core::nprr::join_nprr), no matter how the pool
//!   interleaved the shards (dispatch order never reaches the output, so
//!   fairness is free of correctness risk).
//! * **Cancellation**: dropping a [`QueryHandle`] before waiting marks
//!   the query cancelled; workers still pop its queued tasks but *skip*
//!   the engine run, so an abandoned handle stops burning the pool
//!   almost immediately (and its admission slot is released when the
//!   ring drains).
//! * **Observability** (all of it compiled in, cheap or free when off):
//!   [`Service::counters`] snapshots lifetime `submitted` / `completed` /
//!   `shed` / `cancelled` / `skipped_tasks` plus instantaneous
//!   `in_flight` and `queued_tasks` — taken under the scheduler lock, so
//!   every snapshot is *internally consistent* (never `completed >
//!   submitted`, never `queued_tasks > 0` with `in_flight == 0`). With
//!   [`ServiceConfig::obs`] on (the default) the service also feeds the
//!   process-wide `wcoj-obs` metrics registry (counters, gauges, and
//!   latency histograms — `wcoj_obs::global().render_prometheus()` is a
//!   `/metrics` endpoint body) and records per-query
//!   [`QueryProfile`]s: lifecycle phase timestamps (admitted → planned →
//!   first/last task → reassembled) plus a per-shard breakdown (queue
//!   wait, run time, rows, [`JoinStats`]) via [`QueryHandle::profile`] /
//!   [`QueryHandle::wait_profiled`]. Timestamps are taken at *task*
//!   granularity only, never per tuple. Scheduler decisions (admit /
//!   shed / cancel / skip / ring rotation) additionally land in the
//!   bounded `wcoj_obs::trace()` event ring when `WCOJ_TRACE` (or
//!   [`TraceRing::set_level`](wcoj_obs::TraceRing::set_level)) raises its
//!   level.
//!
//! Degenerate queries never touch the pool: an empty input relation or an
//! empty root-candidate intersection (a *zero-shard plan*) resolves to a
//! finished handle at submit time (it still occupies — and immediately
//! releases — an admission slot, so a burst of degenerate queries cannot
//! starve real ones).
//!
//! ```
//! use std::sync::Arc;
//! use wcoj_core::nprr::PreparedQuery;
//! use wcoj_service::{Service, ServiceConfig};
//! use wcoj_storage::{Relation, Schema};
//!
//! let service = Service::new(ServiceConfig::with_workers(4));
//! let r = Relation::from_u32_rows(Schema::of(&[0, 1]), &[&[1, 2], &[1, 3]]);
//! let s = Relation::from_u32_rows(Schema::of(&[1, 2]), &[&[2, 4], &[3, 4]]);
//! let t = Relation::from_u32_rows(Schema::of(&[0, 2]), &[&[1, 4]]);
//! let prepared = Arc::new(PreparedQuery::new(&[r, s, t]).unwrap());
//! let handle = service.submit(&prepared, &service.exec_config()).unwrap();
//! assert_eq!(handle.wait().unwrap().relation.len(), 2);
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wcoj_core::nprr::{PreparedQuery, RootShard};
use wcoj_core::{JoinOutput, JoinStats, QueryError};
use wcoj_exec::{ExecConfig, ShardPlan, OVERSPLIT};
use wcoj_obs::{trace, Counter, Gauge, Histogram, TraceEvent, TraceLevel};
use wcoj_storage::{Relation, RowBuf, SearchTree};

/// Stats label reported by service-scheduled runs.
const ALGORITHM: &str = "nprr-service";

/// Configuration of a [`Service`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads in the shared pool (clamped to ≥ 1): the
    /// parallelism of the whole process, not of one query. Each query's
    /// plan is sized for `workers × OVERSPLIT` shards.
    pub workers: usize,
    /// Default per-query planning knobs, recommended for
    /// [`Service::submit`] via [`Service::exec_config`] (the catalog
    /// routes use them): `shard_min_size` and `heavy_split_factor` steer
    /// the per-query [`ShardPlan`].
    pub exec: ExecConfig,
    /// Admission bound: the maximum number of queries that may be
    /// admitted-but-unfinished (queued or running) at once. `0` (the
    /// default) means unbounded — the pre-admission-control behaviour.
    /// At the bound, [`Service::submit`] sheds with
    /// [`SubmitError::Overloaded`]; [`Service::submit_blocking`] /
    /// [`Service::try_submit_timeout`] wait for capacity instead.
    /// Degenerate submissions (resolved at submit time) acquire and
    /// immediately release a slot, so they are also shed under overload
    /// — admission stays a pure front-door check that costs no planning.
    pub queue_depth: usize,
    /// Whether the service records into the process-wide `wcoj-obs`
    /// metrics registry and takes per-task timestamps for
    /// [`QueryProfile`]s (default `true`). Off, the per-task `Instant`
    /// reads and histogram updates become no-ops — the comparison arm of
    /// the `e17_obs_overhead` bench — while [`Service::counters`],
    /// correctness accounting, and per-shard row/stats bookkeeping stay
    /// on.
    pub obs: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            exec: ExecConfig::default(),
            queue_depth: 0,
            obs: true,
        }
    }
}

impl ServiceConfig {
    /// A config with `workers` pool threads and default planning knobs.
    #[must_use]
    pub fn with_workers(workers: usize) -> ServiceConfig {
        ServiceConfig {
            workers: workers.max(1),
            ..ServiceConfig::default()
        }
    }

    /// Returns `self` with the admission bound set (see
    /// [`ServiceConfig::queue_depth`]; `0` = unbounded).
    #[must_use]
    pub fn with_queue_depth(mut self, queue_depth: usize) -> ServiceConfig {
        self.queue_depth = queue_depth;
        self
    }

    /// Returns `self` with observability recording toggled (see
    /// [`ServiceConfig::obs`]).
    #[must_use]
    pub fn with_obs(mut self, obs: bool) -> ServiceConfig {
        self.obs = obs;
        self
    }

    /// Default config with the admission bound overridden by the
    /// `WCOJ_QUEUE_DEPTH` environment variable when set (malformed values
    /// warn once and fall back, like every numeric `WCOJ_*` knob — see
    /// [`wcoj_exec::read_env_usize`]). Also applies `WCOJ_TRACE`
    /// (`off`/`summary`/`verbose`, same warn-once fallback —
    /// [`wcoj_exec::trace_level_from_env`]) to the process-wide
    /// [`wcoj_obs::trace`] ring: the trace level is global state, not a
    /// per-service knob, and this is the one env-driven construction
    /// point.
    #[must_use]
    pub fn from_env() -> ServiceConfig {
        let mut cfg = ServiceConfig::default();
        if let Some(d) = wcoj_exec::read_env_usize("WCOJ_QUEUE_DEPTH") {
            cfg.queue_depth = d;
        }
        if let Some(level) = wcoj_exec::trace_level_from_env() {
            trace().set_level(level);
        }
        cfg
    }
}

/// Why [`Service::submit`] (or a sibling) refused a query.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// Admission control shed the submission: the service already had
    /// [`queue_depth`](ServiceConfig::queue_depth) queries in flight (for
    /// the deadline variant: still had, when the deadline expired). The
    /// query was never planned or scheduled; retrying later is safe.
    Overloaded {
        /// Queries in flight when the submission was refused.
        in_flight: usize,
        /// The configured admission bound.
        queue_depth: usize,
    },
    /// Planning/validation failed before any task was scheduled (bad
    /// cover, LP failure, …).
    Query(QueryError),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Overloaded {
                in_flight,
                queue_depth,
            } => write!(
                f,
                "service overloaded: {in_flight} queries in flight at queue depth \
                 {queue_depth}; submission shed"
            ),
            SubmitError::Query(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

impl From<QueryError> for SubmitError {
    fn from(e: QueryError) -> Self {
        SubmitError::Query(e)
    }
}

impl From<SubmitError> for QueryError {
    /// Collapses an overload shed into [`QueryError::Overloaded`] so
    /// callers speaking only `QueryError` (the catalog-routing path)
    /// surface a typed 429 instead of a panic or a stringly error.
    fn from(e: SubmitError) -> Self {
        match e {
            SubmitError::Overloaded { .. } => QueryError::Overloaded,
            SubmitError::Query(e) => e,
        }
    }
}

/// A point-in-time snapshot of the service's scheduling counters
/// ([`Service::counters`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceCounters {
    /// Accepted submissions over the service's lifetime: every submit
    /// call that returned a [`QueryHandle`], *including* degenerate
    /// queries resolved at submit time. Shed submissions and
    /// planning-error submissions are **not** counted.
    pub submitted: u64,
    /// Accepted queries whose work has finished — their last task drained
    /// (run or skipped), or they resolved at submit time. Eventually
    /// `completed == submitted` once the service idles.
    pub completed: u64,
    /// Submissions shed by admission control ([`SubmitError::Overloaded`],
    /// including deadline expiries of [`Service::try_submit_timeout`]).
    pub shed: u64,
    /// Queries whose [`QueryHandle`] was dropped before the query
    /// finished (best-effort: a drop racing the final task may count
    /// even though nothing was left to skip).
    pub cancelled: u64,
    /// Tasks workers popped but skipped because their query was cancelled
    /// — pool time the cancellation saved.
    pub skipped_tasks: u64,
    /// Queries currently admitted and unfinished (what
    /// [`ServiceConfig::queue_depth`] bounds).
    pub in_flight: usize,
    /// Shard tasks currently waiting on the injector (excludes tasks
    /// being run right now).
    pub queued_tasks: usize,
}

/// The service's handles into the process-wide `wcoj-obs` registry.
/// Registered once per process (get-or-create by name), shared by every
/// [`Service`] whose config has [`ServiceConfig::obs`] on — the registry
/// aggregates across services the way a scrape endpoint would.
struct ServiceMetrics {
    submitted: Arc<Counter>,
    completed: Arc<Counter>,
    shed: Arc<Counter>,
    cancelled: Arc<Counter>,
    skipped_tasks: Arc<Counter>,
    in_flight: Arc<Gauge>,
    queued_tasks: Arc<Gauge>,
    query_latency_us: Arc<Histogram>,
    admission_wait_us: Arc<Histogram>,
    task_queue_wait_us: Arc<Histogram>,
    task_run_us: Arc<Histogram>,
    shard_rows: Arc<Histogram>,
}

impl ServiceMetrics {
    fn get() -> &'static ServiceMetrics {
        static METRICS: OnceLock<ServiceMetrics> = OnceLock::new();
        METRICS.get_or_init(|| {
            let r = wcoj_obs::global();
            ServiceMetrics {
                submitted: r.counter(
                    "wcoj_service_submitted_total",
                    "Accepted submissions (incl. degenerate submit-time resolutions)",
                ),
                completed: r.counter(
                    "wcoj_service_completed_total",
                    "Queries whose last task drained",
                ),
                shed: r.counter(
                    "wcoj_service_shed_total",
                    "Submissions refused by admission control",
                ),
                cancelled: r.counter(
                    "wcoj_service_cancelled_total",
                    "Handles dropped before the query finished",
                ),
                skipped_tasks: r.counter(
                    "wcoj_service_skipped_tasks_total",
                    "Tasks popped but skipped because their query was cancelled",
                ),
                in_flight: r.gauge(
                    "wcoj_service_in_flight",
                    "Admitted-but-unfinished queries right now",
                ),
                queued_tasks: r.gauge(
                    "wcoj_service_queued_tasks",
                    "Shard tasks waiting on the injector right now",
                ),
                query_latency_us: r.histogram(
                    "wcoj_query_latency_us",
                    "Submit to last-task-drained, per accepted query (microseconds)",
                ),
                admission_wait_us: r.histogram(
                    "wcoj_admission_wait_us",
                    "Time spent waiting for an admission slot (microseconds)",
                ),
                task_queue_wait_us: r.histogram(
                    "wcoj_task_queue_wait_us",
                    "Per task: ring push to worker pop (microseconds)",
                ),
                task_run_us: r.histogram(
                    "wcoj_task_run_us",
                    "Per task: engine run time (microseconds)",
                ),
                shard_rows: r.histogram("wcoj_shard_rows", "Per task: output rows"),
            }
        })
    }
}

/// Process-unique query ids, shared across services so trace events from
/// concurrent services never collide. Starts at 1 — 0 never names a query.
static QUERY_IDS: AtomicU64 = AtomicU64::new(1);

fn next_query_id() -> u64 {
    QUERY_IDS.fetch_add(1, Ordering::Relaxed)
}

/// The execution profile of one submitted query
/// ([`QueryHandle::profile`] / [`QueryHandle::wait_profiled`]). All
/// timestamps are durations **since submit entry**, taken at task
/// granularity; phases that have not happened (yet) are `None`.
#[derive(Debug, Clone)]
pub struct QueryProfile {
    /// Process-unique id (matches the `query` field of this query's
    /// [`TraceEvent`]s).
    pub query_id: u64,
    /// Submit → admission slot acquired (how long admission control made
    /// the submitter wait; ≈ 0 for non-blocking accepts).
    pub admitted: Duration,
    /// Submit → shard plan computed. `None` for empty-input degenerates
    /// (planning never ran).
    pub planned: Option<Duration>,
    /// Submit → the first worker picked up a task. `None` until then and
    /// for degenerate queries (no task ever dispatched).
    pub first_dispatch: Option<Duration>,
    /// Submit → the last task drained. `None` while the query is still
    /// running. Zero-duration per-task timing (obs off) still sets this
    /// phase's *presence*, but the value collapses toward the coarse
    /// lifecycle clock.
    pub last_finish: Option<Duration>,
    /// Submit → output reassembled (slot-order merge done). `None` until
    /// `wait()`; degenerate queries reassemble at submit time.
    pub reassembled: Option<Duration>,
    /// Tasks the shard plan scheduled (0 for degenerate queries).
    pub total_shards: usize,
    /// Per-shard breakdowns, in slot (= root-value) order; one entry per
    /// *drained* task, so `shards.len() < total_shards` while running.
    pub shards: Vec<ShardProfile>,
    /// The handle was dropped before the query finished.
    pub cancelled: bool,
}

impl QueryProfile {
    /// `true` iff every scheduled shard has drained and reported.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.shards.len() == self.total_shards
    }

    /// Total rows across the per-shard breakdowns. Shards partition the
    /// root domain, so for a finished, uncancelled query this equals the
    /// final output's row count.
    #[must_use]
    pub fn total_rows(&self) -> u64 {
        self.shards.iter().map(|s| s.rows).sum()
    }
}

/// One drained shard task's slice of a [`QueryProfile`].
#[derive(Debug, Clone)]
pub struct ShardProfile {
    /// Slot index in the shard plan (= reassembly order).
    pub slot: usize,
    /// Ring push → worker pop ([`Duration::ZERO`] when
    /// [`ServiceConfig::obs`] is off).
    pub queue_wait: Duration,
    /// Engine run time ([`Duration::ZERO`] when obs is off or the task
    /// was skipped).
    pub run: Duration,
    /// Rows this shard produced (0 for skipped tasks).
    pub rows: u64,
    /// The task was popped after cancellation and skipped the engine run.
    pub skipped: bool,
    /// The shard's engine stats; [`JoinStats::absorb`]ing them in slot
    /// order over a zeroed base reproduces the final output's stats.
    pub stats: JoinStats,
}

/// Profile bookkeeping shared between the submitting thread, the pool
/// workers, and the handle. Timestamps are nanosecond offsets from
/// `base` (submit entry), stored in atomics so workers never take a lock
/// for a phase mark.
struct ProfileState {
    query_id: u64,
    /// The submit-entry instant every offset is relative to.
    base: Instant,
    admitted_ns: u64,
    planned_ns: u64,
    /// First task pickup; `u64::MAX` = no task dispatched yet
    /// (`fetch_min` keeps the earliest).
    first_dispatch_ns: AtomicU64,
    /// Last task drained; `0` = none yet (`fetch_max` keeps the latest).
    last_finish_ns: AtomicU64,
    /// Output reassembled; `0` = not yet.
    reassembled_ns: AtomicU64,
    /// One slot per scheduled shard, filled as tasks drain.
    shards: Mutex<Vec<Option<ShardProfile>>>,
}

impl ProfileState {
    /// Nanoseconds since submit entry (saturating far beyond any
    /// realistic run).
    fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn snapshot(&self, cancelled: bool, finished: bool) -> QueryProfile {
        let first = self.first_dispatch_ns.load(Ordering::Acquire);
        let last = self.last_finish_ns.load(Ordering::Acquire);
        let reassembled = self.reassembled_ns.load(Ordering::Acquire);
        let (shards, total_shards) = {
            let slots = self
                .shards
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            (
                slots.iter().flatten().cloned().collect::<Vec<_>>(),
                slots.len(),
            )
        };
        QueryProfile {
            query_id: self.query_id,
            admitted: Duration::from_nanos(self.admitted_ns),
            planned: Some(Duration::from_nanos(self.planned_ns)),
            first_dispatch: (first != u64::MAX).then(|| Duration::from_nanos(first)),
            // With per-task timing off every task stores mark 0, so use
            // job completion (`finished`) for the phase's presence.
            last_finish: (finished || last > 0).then(|| Duration::from_nanos(last)),
            reassembled: (reassembled > 0).then(|| Duration::from_nanos(reassembled)),
            total_shards,
            shards,
            cancelled,
        }
    }
}

/// A schedulable unit: one shard of one query.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// The queued tasks of one admitted query. Rings are drained round-robin,
/// one task per turn, so concurrent queries share the pool fairly instead
/// of queueing behind whoever submitted first.
struct QueryRing {
    /// The process-unique id of the ring's query (trace events).
    query: u64,
    tasks: VecDeque<Task>,
}

/// Everything guarded by the injector mutex: the rings, the admission
/// accounting the condvars signal on, **and** the lifetime counters.
/// Keeping the counters under the same lock as the queue is what makes a
/// [`Service::counters`] snapshot internally consistent — with them
/// outside (the pre-observability design), a snapshot racing a fast pool
/// could report `completed > submitted`, or a completed query as still
/// in flight.
struct QueueState {
    /// Per-query task rings, in round-robin rotation order. Invariant:
    /// every ring holds ≥ 1 task (empty rings are removed on pop).
    rings: VecDeque<QueryRing>,
    /// Tasks across all rings (denormalised for O(1) counters).
    queued_tasks: usize,
    /// Admitted-but-unfinished queries (the quantity `queue_depth`
    /// bounds).
    in_flight: usize,
    /// Accepted submissions (bumped under this lock, in the same critical
    /// section that makes the work visible).
    submitted: u64,
    /// Accepted queries whose work has finished.
    completed: u64,
    /// Submissions shed by admission control.
    shed: u64,
    /// Handles dropped before their query finished.
    cancelled: u64,
    /// Tasks popped but skipped because their query was cancelled.
    skipped_tasks: u64,
}

/// State shared between the submitting threads and the pool workers.
struct Injector {
    queue: Mutex<QueueState>,
    /// Signalled when tasks are pushed (workers wait here).
    task_ready: Condvar,
    /// Signalled when a query finishes, freeing an admission slot
    /// (blocking submitters wait here).
    space_ready: Condvar,
    shutdown: AtomicBool,
    /// Global-registry handles, `None` when [`ServiceConfig::obs`] is
    /// off. Mirrors of the mutex-guarded counters are bumped *after* the
    /// critical sections — the registry is a reporting surface, the
    /// locked counters stay the source of truth.
    metrics: Option<&'static ServiceMetrics>,
}

impl Injector {
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Enqueues one admitted query's tasks as a fresh ring at the back of
    /// the rotation, counting the acceptance in the same critical section
    /// that makes the work visible to workers.
    fn push_ring(&self, query: u64, tasks: VecDeque<Task>) {
        debug_assert!(!tasks.is_empty(), "rings hold at least one task");
        let n = tasks.len();
        {
            let mut q = self.lock();
            q.queued_tasks += n;
            q.submitted += 1;
            q.rings.push_back(QueryRing { query, tasks });
        }
        if let Some(m) = self.metrics {
            m.submitted.inc();
            m.queued_tasks.add(n as i64);
        }
        trace().record(
            TraceLevel::Summary,
            TraceEvent::Admit {
                query,
                tasks: n as u32,
            },
        );
        if n == 1 {
            self.task_ready.notify_one();
        } else {
            self.task_ready.notify_all();
        }
    }

    /// Enqueues **auxiliary** (non-query) tasks — maintenance work such
    /// as shard-parallel delta compaction — as a ring in the same
    /// round-robin rotation, *without* counting a query admission:
    /// `submitted`/`completed`/`in_flight` stay untouched, so admission
    /// control never sheds a query because maintenance is running and
    /// the counters snapshot keeps its `completed == submitted` idle
    /// invariant. Workers still interleave the ring fairly with query
    /// shards (one task per rotation turn).
    fn push_aux_ring(&self, query: u64, tasks: VecDeque<Task>) {
        debug_assert!(!tasks.is_empty(), "rings hold at least one task");
        let n = tasks.len();
        {
            let mut q = self.lock();
            q.queued_tasks += n;
            q.rings.push_back(QueryRing { query, tasks });
        }
        if let Some(m) = self.metrics {
            m.queued_tasks.add(n as i64);
        }
        if n == 1 {
            self.task_ready.notify_one();
        } else {
            self.task_ready.notify_all();
        }
    }

    /// Worker side: next task — **round-robin across query rings**, one
    /// task per turn — or `None` once shut down *and* drained (pending
    /// queries always finish, so handles never dangle).
    fn pop(&self) -> Option<Task> {
        let mut q = self.lock();
        loop {
            if let Some(mut ring) = q.rings.pop_front() {
                let task = ring.tasks.pop_front().expect("rings hold ≥ 1 task");
                q.queued_tasks -= 1;
                let rotated = if ring.tasks.is_empty() {
                    None
                } else {
                    // Rotate: this query goes to the back so its
                    // neighbours get the next turns.
                    let info = (ring.query, ring.tasks.len() as u32);
                    q.rings.push_back(ring);
                    Some(info)
                };
                drop(q);
                if let Some(m) = self.metrics {
                    m.queued_tasks.sub(1);
                }
                if let Some((query, remaining)) = rotated {
                    trace().record(
                        TraceLevel::Verbose,
                        TraceEvent::RingRotate { query, remaining },
                    );
                }
                return Some(task);
            }
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            q = self
                .task_ready
                .wait(q)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Releases one admission slot (a query errored at planning time —
    /// finished queries go through [`Injector::finish_query`], which also
    /// counts them) and wakes blocked submitters.
    fn release_slot(&self) {
        {
            let mut q = self.lock();
            debug_assert!(q.in_flight > 0, "release without admission");
            q.in_flight -= 1;
        }
        if let Some(m) = self.metrics {
            m.in_flight.sub(1);
        }
        self.space_ready.notify_one();
    }

    /// A query's last task drained (or it resolved at submit time):
    /// release its slot and count it done — **one** critical section, so
    /// no counters snapshot can see the query both completed and in
    /// flight.
    fn finish_query(&self, query: u64) {
        {
            let mut q = self.lock();
            debug_assert!(q.in_flight > 0, "finish without admission");
            q.completed += 1;
            q.in_flight -= 1;
        }
        if let Some(m) = self.metrics {
            m.completed.inc();
            m.in_flight.sub(1);
        }
        trace().record(TraceLevel::Summary, TraceEvent::Finish { query });
        self.space_ready.notify_one();
    }

    /// A worker popped a task of a cancelled query and skipped the engine
    /// run. Settled **before** [`JobState::complete`] frees the slot, so
    /// by the time the counters report the query gone, its skips are
    /// already in.
    fn note_skipped(&self, query: u64, slot: usize) {
        self.lock().skipped_tasks += 1;
        if let Some(m) = self.metrics {
            m.skipped_tasks.inc();
        }
        trace().record(
            TraceLevel::Summary,
            TraceEvent::SkipTask {
                query,
                slot: slot as u32,
            },
        );
    }

    /// A pending handle was dropped: its query is cancelled.
    fn note_cancelled(&self, query: u64) {
        self.lock().cancelled += 1;
        if let Some(m) = self.metrics {
            m.cancelled.inc();
        }
        trace().record(TraceLevel::Summary, TraceEvent::Cancel { query });
    }
}

/// One shard's result: raw rows over the total order (one flat buffer)
/// plus run stats.
type ShardResult = (RowBuf, JoinStats);

/// Per-query completion state: one slot per shard, filled by workers in
/// whatever order the pool interleaves them; reassembly reads the slots
/// in index (= root-value) order, which is what makes the merge
/// deterministic.
struct JobState {
    slots: Mutex<Vec<Option<ShardResult>>>,
    remaining: AtomicUsize,
    /// A worker panicked while running one of this query's shards.
    poisoned: AtomicBool,
    /// The handle was dropped before waiting: workers skip the engine run
    /// for this query's remaining tasks.
    cancelled: AtomicBool,
    done: Mutex<bool>,
    done_ready: Condvar,
    /// Signalled (paired with the `slots` mutex) every time a slot
    /// settles — the [`RowStream`] subscription point, woken per shard
    /// instead of only at the final [`JobState::notify_done`].
    slot_ready: Condvar,
}

impl JobState {
    fn new(shards: usize) -> JobState {
        JobState {
            slots: Mutex::new(vec![None; shards]),
            remaining: AtomicUsize::new(shards),
            poisoned: AtomicBool::new(false),
            cancelled: AtomicBool::new(false),
            done: Mutex::new(false),
            done_ready: Condvar::new(),
            slot_ready: Condvar::new(),
        }
    }

    /// Records one shard's result; returns `true` iff it was the query's
    /// last outstanding shard. The caller then settles the query with the
    /// service **before** calling [`JobState::notify_done`], so by the
    /// time `wait()` returns, the admission slot is released and the
    /// counters have settled.
    fn complete(&self, index: usize, result: Option<ShardResult>) -> bool {
        // Both the slot write and the poison mark happen under the
        // slots mutex, and the per-slot condvar is notified inside
        // the same critical section: a RowStream waiter checking its
        // slot can never miss the wakeup (it either sees the new
        // state or is already parked when the notify fires). The shard
        // is also counted down *before* the notify, in the same
        // critical section — a stream that consumes the final slot must
        // observe `remaining == 0` (`is_finished`) immediately, not
        // after a window in which the worker has published rows but not
        // yet decremented.
        let mut slots = self
            .slots
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match result {
            Some(result) => slots[index] = Some(result),
            None => self.poisoned.store(true, Ordering::Release),
        }
        let last = self.remaining.fetch_sub(1, Ordering::AcqRel) == 1;
        self.slot_ready.notify_all();
        last
    }

    /// Blocks until slot `index` has settled and takes its raw rows.
    ///
    /// # Panics
    /// If a worker panicked while running one of the query's shards.
    fn take_slot(&self, index: usize) -> RowBuf {
        let mut slots = self
            .slots
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            assert!(
                !self.poisoned.load(Ordering::Acquire),
                "a service worker panicked while running a shard of this query"
            );
            if let Some((rows, _stats)) = slots[index].take() {
                return rows;
            }
            slots = self
                .slot_ready
                .wait(slots)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Wakes waiters; call only after the last [`JobState::complete`].
    fn notify_done(&self) {
        let mut done = self
            .done
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *done = true;
        self.done_ready.notify_all();
    }

    fn wait(&self) {
        let mut done = self
            .done
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while !*done {
            done = self
                .done_ready
                .wait(done)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// The future of a submitted query. [`wait`](QueryHandle::wait) blocks
/// until every shard has run on the pool and returns the reassembled
/// output. **Dropping** the handle without waiting *cancels* the query:
/// workers skip the engine run for its remaining tasks, so an abandoned
/// handle stops burning the shared pool (and frees its admission slot
/// as its ring drains).
pub struct QueryHandle {
    inner: Option<HandleInner>,
}

/// Moves one settled slot's raw rows into a standalone [`Relation`]
/// (sorted + deduplicated within the slot). Shared by every batch of a
/// [`RowStream`], hence `Fn`, not `FnOnce`.
type SlotAssemble = Box<dyn Fn(RowBuf) -> Result<Relation, QueryError> + Send>;

enum HandleInner {
    /// Resolved at submit time (empty input, zero-shard plan). Boxed so
    /// the common `Pending` variant stays small.
    Ready(Box<(Result<JoinOutput, QueryError>, QueryProfile)>),
    /// Waits on the pool, then assembles.
    Pending {
        state: Arc<JobState>,
        injector: Arc<Injector>,
        profile: Arc<ProfileState>,
        assemble: Box<dyn FnOnce() -> Result<JoinOutput, QueryError> + Send>,
        slot_assemble: SlotAssemble,
        /// Concatenating per-slot batches in slot order reproduces the
        /// full output byte-for-byte (see
        /// [`PreparedQuery::slots_stream_sorted`]).
        ordered: bool,
    },
}

impl QueryHandle {
    fn ready(result: Result<JoinOutput, QueryError>, profile: QueryProfile) -> QueryHandle {
        QueryHandle {
            inner: Some(HandleInner::Ready(Box::new((result, profile)))),
        }
    }

    /// Blocks until the query finishes; returns its output.
    ///
    /// # Errors
    /// Propagates evaluation errors.
    ///
    /// # Panics
    /// If a pool worker panicked while running one of this query's shards
    /// (the panic is re-raised here instead of deadlocking the caller).
    pub fn wait(mut self) -> Result<JoinOutput, QueryError> {
        match self.inner.take().expect("handle consumed exactly once") {
            HandleInner::Ready(ready) => ready.0,
            HandleInner::Pending { assemble, .. } => assemble(),
        }
    }

    /// Like [`wait`](QueryHandle::wait), but also returns the query's
    /// final [`QueryProfile`] — every lifecycle phase set, every shard
    /// reported.
    ///
    /// # Errors
    /// Propagates evaluation errors.
    ///
    /// # Panics
    /// Same as [`wait`](QueryHandle::wait).
    pub fn wait_profiled(mut self) -> Result<(JoinOutput, QueryProfile), QueryError> {
        match self.inner.take().expect("handle consumed exactly once") {
            HandleInner::Ready(ready) => {
                let (result, profile) = *ready;
                result.map(|out| (out, profile))
            }
            HandleInner::Pending {
                profile, assemble, ..
            } => {
                let out = assemble()?;
                Ok((out, profile.snapshot(false, true)))
            }
        }
    }

    /// A point-in-time [`QueryProfile`] snapshot — non-blocking, callable
    /// while the query is still running (phases that have not happened
    /// are `None`, `shards` holds only drained tasks).
    ///
    /// # Panics
    /// If the handle was already consumed by `wait` (unreachable through
    /// safe use: both consume `self`).
    #[must_use]
    pub fn profile(&self) -> QueryProfile {
        match self.inner.as_ref().expect("handle not consumed") {
            HandleInner::Ready(ready) => ready.1.clone(),
            HandleInner::Pending { state, profile, .. } => profile.snapshot(
                state.cancelled.load(Ordering::Acquire),
                state.remaining.load(Ordering::Acquire) == 0,
            ),
        }
    }

    /// `true` iff every shard of the query has already drained — `wait`
    /// would return without blocking. Degenerate submit-time resolutions
    /// are always finished.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        match &self.inner {
            Some(HandleInner::Ready(..)) | None => true,
            Some(HandleInner::Pending { state, .. }) => {
                state.remaining.load(Ordering::Acquire) == 0
            }
        }
    }

    /// Turns the handle into an **incremental** subscription: each call
    /// to [`RowStream::next_batch`] blocks only until the *next* slot
    /// settles and yields that slot's rows as a standalone sorted,
    /// deduplicated [`Relation`] — a front end can push early shards to
    /// the client while the pool is still running later ones.
    ///
    /// Slot rectangles partition the output (disjoint `(root, anchor)`
    /// ranges), so concatenating every batch and running one final
    /// `sort_dedup` always reproduces [`wait`](QueryHandle::wait)'s
    /// relation exactly. When [`RowStream::ordered`] is `true` even the
    /// final sort is unnecessary: plain concatenation in batch order is
    /// already the full output, byte for byte.
    ///
    /// Dropping the stream before draining it cancels the query exactly
    /// like dropping an unwaited handle would.
    #[must_use]
    pub fn into_stream(mut self) -> RowStream {
        match self.inner.take().expect("handle consumed exactly once") {
            HandleInner::Ready(ready) => RowStream {
                inner: StreamInner::Ready(Some(ready.0)),
                next_slot: 0,
                total_slots: 1,
                ordered: true,
            },
            HandleInner::Pending {
                state,
                injector,
                profile,
                slot_assemble,
                ordered,
                ..
            } => {
                let total_slots = state
                    .slots
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .len();
                RowStream {
                    inner: StreamInner::Pending {
                        state,
                        injector,
                        profile,
                        convert: slot_assemble,
                    },
                    next_slot: 0,
                    total_slots,
                    ordered,
                }
            }
        }
    }
}

impl fmt::Debug for QueryHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some(HandleInner::Ready(..)) => f.write_str("QueryHandle(ready)"),
            Some(HandleInner::Pending { state, .. }) => write!(
                f,
                "QueryHandle(pending, {} shards outstanding)",
                state.remaining.load(Ordering::Relaxed)
            ),
            None => f.write_str("QueryHandle(consumed)"),
        }
    }
}

impl Drop for QueryHandle {
    /// Abandoning a pending handle cancels its query: remaining tasks are
    /// skipped by the workers instead of burning the pool for a result
    /// nobody can read any more.
    fn drop(&mut self) {
        if let Some(HandleInner::Pending {
            state,
            injector,
            profile,
            ..
        }) = &self.inner
        {
            state.cancelled.store(true, Ordering::Release);
            if state.remaining.load(Ordering::Acquire) > 0 {
                injector.note_cancelled(profile.query_id);
            }
        }
    }
}

/// One settled slot's output, yielded by [`RowStream::next_batch`].
#[derive(Debug)]
pub struct RowBatch {
    /// The slot (= shard = root-rectangle) index this batch came from.
    /// Batches arrive in strictly ascending slot order.
    pub slot: usize,
    /// The slot's rows, sorted and deduplicated within the slot.
    pub relation: Relation,
}

enum StreamInner {
    /// Degenerate submit-time resolution: one synthetic batch.
    Ready(Option<Result<JoinOutput, QueryError>>),
    Pending {
        state: Arc<JobState>,
        injector: Arc<Injector>,
        profile: Arc<ProfileState>,
        convert: SlotAssemble,
    },
}

/// An incremental subscription to a running query, made by
/// [`QueryHandle::into_stream`]. Yields one [`RowBatch`] per slot, in
/// slot order, each as soon as that slot settles — the streaming hook
/// the HTTP front end's chunked `/query/{id}/rows` endpoint rides on.
pub struct RowStream {
    inner: StreamInner,
    next_slot: usize,
    total_slots: usize,
    ordered: bool,
}

impl RowStream {
    /// `true` iff concatenating the batches in arrival order reproduces
    /// the full query output byte-for-byte (the prepared total order
    /// already matches the output schema). When `false` the consumer
    /// must merge: concatenate all batches, then sort + dedup once.
    #[must_use]
    pub fn ordered(&self) -> bool {
        self.ordered
    }

    /// Number of batches the stream will yield in total.
    #[must_use]
    pub fn total_slots(&self) -> usize {
        self.total_slots
    }

    /// Batches already yielded by [`next_batch`](RowStream::next_batch).
    #[must_use]
    pub fn slots_emitted(&self) -> usize {
        self.next_slot
    }

    /// `true` iff every shard has already drained on the pool —
    /// remaining `next_batch` calls will not block.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        match &self.inner {
            StreamInner::Ready(..) => true,
            StreamInner::Pending { state, .. } => state.remaining.load(Ordering::Acquire) == 0,
        }
    }

    /// Blocks until **every** shard has drained (without consuming any
    /// batches) — the poll-with-block endpoint's primitive.
    pub fn wait_settled(&self) {
        if let StreamInner::Pending { state, .. } = &self.inner {
            state.wait();
        }
    }

    /// Blocks until the next slot settles and yields its rows; `None`
    /// once every slot has been yielded.
    ///
    /// # Errors
    /// Propagates evaluation errors (degenerate submissions only — shard
    /// evaluation itself is infallible once admitted; worker *panics*
    /// re-raise here, see below).
    ///
    /// # Panics
    /// If a pool worker panicked while running one of this query's
    /// shards (mirrors [`QueryHandle::wait`]).
    pub fn next_batch(&mut self) -> Option<Result<RowBatch, QueryError>> {
        if self.next_slot >= self.total_slots {
            return None;
        }
        let slot = self.next_slot;
        match &mut self.inner {
            StreamInner::Ready(result) => {
                self.next_slot += 1;
                let result = result.take().expect("ready batch yielded exactly once");
                Some(result.map(|out| RowBatch {
                    slot,
                    relation: out.relation,
                }))
            }
            StreamInner::Pending { state, convert, .. } => {
                let rows = state.take_slot(slot);
                self.next_slot += 1;
                Some(convert(rows).map(|relation| RowBatch { slot, relation }))
            }
        }
    }

    /// Blocks until **every** remaining slot has settled and yields them
    /// as one batch: the slots' raw rows concatenated in slot order, then
    /// one column permutation and one sort. The consumer of a stream that
    /// is not [`ordered`](RowStream::ordered) has to merge the batches
    /// anyway; this skips the per-slot sorts such a merge throws away.
    /// The batch's `slot` is the first one merged; `None` once every slot
    /// has been yielded.
    ///
    /// # Errors
    /// Same as [`next_batch`](RowStream::next_batch).
    ///
    /// # Panics
    /// Same as [`next_batch`](RowStream::next_batch).
    pub fn next_merged(&mut self) -> Option<Result<RowBatch, QueryError>> {
        let slot = self.next_slot;
        let StreamInner::Pending { state, convert, .. } = &mut self.inner else {
            return self.next_batch();
        };
        if slot >= self.total_slots {
            return None;
        }
        let mut rows = state.take_slot(slot);
        for later in slot + 1..self.total_slots {
            rows.append(&state.take_slot(later));
        }
        self.next_slot = self.total_slots;
        Some(convert(rows).map(|relation| RowBatch { slot, relation }))
    }
}

impl fmt::Debug for RowStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RowStream({}/{} slots emitted, ordered: {})",
            self.next_slot, self.total_slots, self.ordered
        )
    }
}

impl Drop for RowStream {
    /// Abandoning a partially drained stream cancels the query, exactly
    /// like dropping an unwaited [`QueryHandle`]: workers skip the
    /// remaining shards, the admission slot frees as the ring drains. A
    /// client that disconnects mid-stream therefore cannot leak pool
    /// capacity.
    fn drop(&mut self) {
        if let StreamInner::Pending {
            state,
            injector,
            profile,
            ..
        } = &self.inner
        {
            if self.next_slot < self.total_slots {
                state.cancelled.store(true, Ordering::Release);
                if state.remaining.load(Ordering::Acquire) > 0 {
                    injector.note_cancelled(profile.query_id);
                }
            }
        }
    }
}

/// How a submission behaves when the service is at its admission bound.
enum Admission {
    /// Fail fast with [`SubmitError::Overloaded`].
    Shed,
    /// Wait (on the space condvar) until a slot frees up.
    Block,
    /// Wait until the deadline, then shed.
    Deadline(Instant),
}

/// A batch of auxiliary tasks dispatched through the pool by
/// [`Service::run_tasks`]: a countdown latch the caller blocks on.
/// Dropping without waiting is allowed — the tasks still run.
pub struct TaskBatch {
    latch: Arc<(Mutex<usize>, Condvar)>,
}

impl TaskBatch {
    /// Blocks until every task in the batch has finished (or panicked —
    /// a panicking task still counts down, so the batch can't hang).
    pub fn wait(&self) {
        let (lock, cv) = &*self.latch;
        let mut remaining = lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while *remaining > 0 {
            remaining = cv
                .wait(remaining)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// Counts a [`TaskBatch`] task down on drop, so a panic inside the task
/// body still releases the latch.
struct LatchGuard(Arc<(Mutex<usize>, Condvar)>);

impl Drop for LatchGuard {
    fn drop(&mut self) {
        let (lock, cv) = &*self.0;
        let mut remaining = lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *remaining -= 1;
        if *remaining == 0 {
            cv.notify_all();
        }
    }
}

/// A long-lived executor owning one global worker pool; queries from any
/// thread share it. See the crate docs for the scheduling model
/// (round-robin fair dispatch, bounded admission, cancellation).
pub struct Service {
    injector: Arc<Injector>,
    workers: Vec<JoinHandle<()>>,
    cfg: ServiceConfig,
}

impl Service {
    /// Spawns the worker pool.
    #[must_use]
    pub fn new(cfg: ServiceConfig) -> Service {
        let cfg = ServiceConfig {
            workers: cfg.workers.max(1),
            ..cfg
        };
        let injector = Arc::new(Injector {
            queue: Mutex::new(QueueState {
                rings: VecDeque::new(),
                queued_tasks: 0,
                in_flight: 0,
                submitted: 0,
                completed: 0,
                shed: 0,
                cancelled: 0,
                skipped_tasks: 0,
            }),
            task_ready: Condvar::new(),
            space_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            metrics: cfg.obs.then(ServiceMetrics::get),
        });
        let workers = (0..cfg.workers)
            .map(|i| {
                let injector = Arc::clone(&injector);
                std::thread::Builder::new()
                    .name(format!("wcoj-service-{i}"))
                    .spawn(move || {
                        while let Some(task) = injector.pop() {
                            // A panicking shard must not take the worker
                            // down with it: the task itself reports the
                            // failure to its job, the pool keeps serving
                            // the other queries.
                            let _ = catch_unwind(AssertUnwindSafe(task));
                        }
                    })
                    .expect("spawn service worker")
            })
            .collect();
        Service {
            injector,
            workers,
            cfg,
        }
    }

    /// Number of pool workers.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Accepted submissions over the service's lifetime: every submit
    /// call that returned a [`QueryHandle`], **including** degenerate
    /// queries resolved at submit time; shed submissions and
    /// planning-error (e.g. bad cover / LP failure) submissions are not
    /// counted.
    #[must_use]
    pub fn submitted(&self) -> u64 {
        self.injector.lock().submitted
    }

    /// A point-in-time snapshot of the scheduling counters — taken in
    /// **one** critical section of the scheduler lock, so the snapshot is
    /// internally consistent: never `completed > submitted`, never
    /// `queued_tasks > 0` with `in_flight == 0`, and once the service
    /// idles, `completed == submitted` exactly (cancelled queries still
    /// drain and complete).
    #[must_use]
    pub fn counters(&self) -> ServiceCounters {
        let q = self.injector.lock();
        ServiceCounters {
            submitted: q.submitted,
            completed: q.completed,
            shed: q.shed,
            cancelled: q.cancelled,
            skipped_tasks: q.skipped_tasks,
            in_flight: q.in_flight,
            queued_tasks: q.queued_tasks,
        }
    }

    /// Runs a batch of independent closures on the worker pool as one
    /// auxiliary ring — the injector-task path maintenance work (delta
    /// compaction chunks, index rebuilds) uses to share workers with
    /// queries instead of spawning threads. The batch **bypasses
    /// admission control** and the submitted/completed counters: it is
    /// not a query, and it must not be shed or block behind queue-depth
    /// limits it doesn't consume.
    ///
    /// Returns a [`TaskBatch`]; call [`TaskBatch::wait`] to block until
    /// every closure has run. Panicking closures are caught by the
    /// worker (and still count down), like panicking query shards.
    /// Empty batches return an already-settled latch.
    #[must_use]
    pub fn run_tasks(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'static>>) -> TaskBatch {
        let latch = Arc::new((Mutex::new(tasks.len()), Condvar::new()));
        if tasks.is_empty() {
            return TaskBatch { latch };
        }
        let ring: VecDeque<Task> = tasks
            .into_iter()
            .map(|task| {
                let guard = LatchGuard(Arc::clone(&latch));
                Box::new(move || {
                    let _count_down = guard;
                    task();
                }) as Task
            })
            .collect();
        self.injector.push_aux_ring(next_query_id(), ring);
        TaskBatch { latch }
    }

    /// The service's default per-query planning config.
    #[must_use]
    pub fn exec_config(&self) -> ExecConfig {
        self.cfg.exec.clone()
    }

    /// The configured admission bound (`0` = unbounded).
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.cfg.queue_depth
    }

    /// The shard layout [`submit`](Service::submit) would schedule for
    /// `prepared` on this service: the planned ranges, or a single
    /// unrestricted task for degenerate plans. Empty exactly when the
    /// query is a zero-shard plan (deterministic, so differential tests
    /// can re-run the layout shard by shard).
    #[must_use]
    pub fn shard_layout<S: SearchTree>(
        &self,
        prepared: &PreparedQuery<S>,
        cfg: &ExecConfig,
    ) -> Vec<Option<RootShard>> {
        let plan = ShardPlan::plan(prepared, self.workers.len() * OVERSPLIT, cfg);
        if plan.root_domain_is_empty(prepared) {
            Vec::new()
        } else {
            plan.tasks()
        }
    }

    /// Acquires an admission slot according to `how`.
    fn admit(&self, how: &Admission) -> Result<(), SubmitError> {
        let depth = self.cfg.queue_depth;
        let mut q = self.injector.lock();
        loop {
            if depth == 0 || q.in_flight < depth {
                q.in_flight += 1;
                drop(q);
                if let Some(m) = self.injector.metrics {
                    m.in_flight.add(1);
                }
                return Ok(());
            }
            let in_flight = q.in_flight;
            let overloaded = SubmitError::Overloaded {
                in_flight,
                queue_depth: depth,
            };
            let shed_now = match how {
                Admission::Shed => true,
                Admission::Deadline(deadline) => Instant::now() >= *deadline,
                Admission::Block => false,
            };
            if shed_now {
                q.shed += 1;
                drop(q);
                if let Some(m) = self.injector.metrics {
                    m.shed.inc();
                }
                trace().record(
                    TraceLevel::Summary,
                    TraceEvent::Shed {
                        in_flight: in_flight as u32,
                    },
                );
                return Err(overloaded);
            }
            q = match how {
                Admission::Block => self
                    .injector
                    .space_ready
                    .wait(q)
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
                Admission::Deadline(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    self.injector
                        .space_ready
                        .wait_timeout(q, left)
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .0
                }
                Admission::Shed => unreachable!("shed handled above"),
            };
        }
    }

    /// Submits a prepared query with the LP-optimal fractional cover.
    /// Returns immediately; the shards run on the shared pool. Under
    /// overload ([`ServiceConfig::queue_depth`] queries already in
    /// flight) the submission is **shed**, not queued.
    ///
    /// # Errors
    /// [`SubmitError::Overloaded`] when admission control sheds the
    /// query; [`SubmitError::Query`] for LP errors from solving for the
    /// optimal cover.
    pub fn submit<S>(
        &self,
        prepared: &Arc<PreparedQuery<S>>,
        cfg: &ExecConfig,
    ) -> Result<QueryHandle, SubmitError>
    where
        S: SearchTree + Send + Sync + 'static,
    {
        self.submit_inner(prepared, None, cfg, &Admission::Shed)
    }

    /// Like [`submit`](Service::submit), but **waits** for an admission
    /// slot instead of shedding when the service is at its bound — for
    /// callers that prefer delay over a 429.
    ///
    /// # Errors
    /// [`SubmitError::Query`] for LP errors (never
    /// [`SubmitError::Overloaded`]).
    pub fn submit_blocking<S>(
        &self,
        prepared: &Arc<PreparedQuery<S>>,
        cfg: &ExecConfig,
    ) -> Result<QueryHandle, SubmitError>
    where
        S: SearchTree + Send + Sync + 'static,
    {
        self.submit_inner(prepared, None, cfg, &Admission::Block)
    }

    /// Like [`submit_blocking`](Service::submit_blocking) with a
    /// deadline: waits up to `timeout` for an admission slot, then sheds.
    ///
    /// # Errors
    /// [`SubmitError::Overloaded`] when no slot freed up within
    /// `timeout`; [`SubmitError::Query`] for LP errors.
    pub fn try_submit_timeout<S>(
        &self,
        prepared: &Arc<PreparedQuery<S>>,
        cfg: &ExecConfig,
        timeout: Duration,
    ) -> Result<QueryHandle, SubmitError>
    where
        S: SearchTree + Send + Sync + 'static,
    {
        let deadline = Instant::now()
            .checked_add(timeout)
            .unwrap_or_else(|| Instant::now() + Duration::from_secs(86_400));
        self.submit_inner(prepared, None, cfg, &Admission::Deadline(deadline))
    }

    /// Like [`submit`](Service::submit) with an explicit fractional cover
    /// (validated; one weight per relation in input order).
    ///
    /// # Errors
    /// [`SubmitError::Overloaded`] under overload;
    /// [`SubmitError::Query`] wrapping [`QueryError::BadCover`] for
    /// invalid covers or LP errors when solving for the optimum.
    pub fn submit_with_cover<S>(
        &self,
        prepared: &Arc<PreparedQuery<S>>,
        cover: Option<&[f64]>,
        cfg: &ExecConfig,
    ) -> Result<QueryHandle, SubmitError>
    where
        S: SearchTree + Send + Sync + 'static,
    {
        self.submit_inner(prepared, cover, cfg, &Admission::Shed)
    }

    /// An accepted submission that resolved at submit time: it holds an
    /// admission slot (acquired in `admit`) that must be released, and it
    /// counts as submitted **and** completed in one critical section, so
    /// a concurrent [`Service::counters`] snapshot never observes
    /// `completed > submitted` or a phantom in-flight query.
    fn accept_ready(
        &self,
        query_id: u64,
        submit_start: Instant,
        admitted_ns: u64,
        planned_ns: Option<u64>,
        result: Result<JoinOutput, QueryError>,
    ) -> Result<QueryHandle, SubmitError> {
        {
            let mut q = self.injector.lock();
            q.submitted += 1;
            q.completed += 1;
            debug_assert!(q.in_flight > 0, "accept without admission");
            q.in_flight -= 1;
        }
        self.injector.space_ready.notify_one();
        let elapsed = submit_start.elapsed();
        if let Some(m) = self.injector.metrics {
            m.submitted.inc();
            m.completed.inc();
            m.in_flight.sub(1);
            m.query_latency_us
                .observe(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
        }
        trace().record(
            TraceLevel::Summary,
            TraceEvent::Admit {
                query: query_id,
                tasks: 0,
            },
        );
        trace().record(TraceLevel::Summary, TraceEvent::Finish { query: query_id });
        let profile = QueryProfile {
            query_id,
            admitted: Duration::from_nanos(admitted_ns),
            planned: planned_ns.map(Duration::from_nanos),
            first_dispatch: None,
            last_finish: None,
            reassembled: Some(elapsed),
            total_shards: 0,
            shards: Vec::new(),
            cancelled: false,
        };
        Ok(QueryHandle::ready(result, profile))
    }

    fn submit_inner<S>(
        &self,
        prepared: &Arc<PreparedQuery<S>>,
        cover: Option<&[f64]>,
        cfg: &ExecConfig,
        how: &Admission,
    ) -> Result<QueryHandle, SubmitError>
    where
        S: SearchTree + Send + Sync + 'static,
    {
        let submit_start = Instant::now();
        // Admission first: under overload the submission is refused
        // *before* any planning work (shedding is supposed to be cheap).
        self.admit(how)?;
        let admitted_ns = u64::try_from(submit_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if let Some(m) = self.injector.metrics {
            m.admission_wait_us.observe(admitted_ns / 1_000);
        }
        let query_id = next_query_id();

        let base_stats = |log2_bound: f64, x: &[f64]| JoinStats {
            algorithm_used: ALGORITHM,
            log2_agm_bound: log2_bound,
            cover: x.to_vec(),
            ..JoinStats::default()
        };

        // Degenerate inputs resolve immediately — no tasks, no workers
        // (and no shard plan: `planned` stays unset).
        if prepared.input_is_empty() {
            return self.accept_ready(
                query_id,
                submit_start,
                admitted_ns,
                None,
                Ok(JoinOutput {
                    relation: Relation::empty(prepared.query().output_schema()),
                    stats: base_stats(0.0, &[]),
                }),
            );
        }
        let (x, log2_bound) = match prepared.resolve_cover(cover) {
            Ok(resolved) => resolved,
            Err(e) => {
                // Rejected before scheduling: give the slot back and do
                // NOT count the submission as accepted.
                self.injector.release_slot();
                return Err(SubmitError::Query(e));
            }
        };

        let tasks = self.shard_layout(&**prepared, cfg);
        let planned_ns = u64::try_from(submit_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if tasks.is_empty() {
            // Zero-shard plan: no root value survives the level-0
            // intersection, the output is empty.
            return self.accept_ready(
                query_id,
                submit_start,
                admitted_ns,
                Some(planned_ns),
                prepared.assemble(
                    RowBuf::new(prepared.total_order().len()),
                    base_stats(log2_bound, &x),
                ),
            );
        }

        let timed = self.cfg.obs;
        let profile = Arc::new(ProfileState {
            query_id,
            base: submit_start,
            admitted_ns,
            planned_ns,
            first_dispatch_ns: AtomicU64::new(u64::MAX),
            last_finish_ns: AtomicU64::new(0),
            reassembled_ns: AtomicU64::new(0),
            shards: Mutex::new(vec![None; tasks.len()]),
        });
        let state = Arc::new(JobState::new(tasks.len()));
        let mut ring: VecDeque<Task> = VecDeque::with_capacity(tasks.len());
        for (i, shard) in tasks.into_iter().enumerate() {
            let prepared = Arc::clone(prepared);
            let state = Arc::clone(&state);
            let injector = Arc::clone(&self.injector);
            let profile = Arc::clone(&profile);
            let x = x.clone();
            // Offset of the ring push, so the worker can compute its
            // queue wait with one subtraction (zero when timing is off).
            let enqueued_ns = if timed { profile.elapsed_ns() } else { 0 };
            ring.push_back(Box::new(move || {
                // With timing off the mark is 0: the phase still reads as
                // "happened" (≠ the MAX sentinel), just with a zero value.
                let started_ns = if timed { profile.elapsed_ns() } else { 0 };
                profile
                    .first_dispatch_ns
                    .fetch_min(started_ns, Ordering::AcqRel);
                let mut payload = None;
                let skipped = state.cancelled.load(Ordering::Acquire);
                let result = if skipped {
                    // The handle is gone: nobody can read the rows, skip
                    // the engine run and just drain the accounting.
                    injector.note_skipped(profile.query_id, i);
                    let no_rows = RowBuf::new(prepared.total_order().len());
                    Some((no_rows, JoinStats::default()))
                } else {
                    // Report a panic to the job before re-raising, so
                    // wait() fails loudly instead of blocking forever.
                    match catch_unwind(AssertUnwindSafe(|| {
                        prepared.run_shard(&x, log2_bound, shard)
                    })) {
                        Ok(rows_stats) => Some(rows_stats),
                        Err(p) => {
                            payload = Some(p);
                            None
                        }
                    }
                };
                if let Some((rows, stats)) = &result {
                    let finished_ns = if timed { profile.elapsed_ns() } else { 0 };
                    let queue_wait = started_ns.saturating_sub(enqueued_ns);
                    let run = finished_ns.saturating_sub(started_ns);
                    if timed {
                        profile
                            .last_finish_ns
                            .fetch_max(finished_ns, Ordering::AcqRel);
                        if let Some(m) = injector.metrics {
                            m.task_queue_wait_us.observe(queue_wait / 1_000);
                            m.task_run_us.observe(run / 1_000);
                            m.shard_rows.observe(rows.len() as u64);
                        }
                        trace().record(
                            TraceLevel::Verbose,
                            TraceEvent::TaskRun {
                                query: profile.query_id,
                                slot: i as u32,
                                run_us: run / 1_000,
                            },
                        );
                    }
                    let shard_profile = ShardProfile {
                        slot: i,
                        queue_wait: Duration::from_nanos(queue_wait),
                        run: Duration::from_nanos(run),
                        rows: rows.len() as u64,
                        skipped,
                        stats: stats.clone(),
                    };
                    profile
                        .shards
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)[i] =
                        Some(shard_profile);
                }
                if state.complete(i, result) {
                    // Settle with the service first: once wait() returns,
                    // the admission slot is free and the counters agree.
                    injector.finish_query(profile.query_id);
                    if let Some(m) = injector.metrics {
                        m.query_latency_us.observe(
                            u64::try_from(profile.base.elapsed().as_micros()).unwrap_or(u64::MAX),
                        );
                    }
                    state.notify_done();
                }
                if let Some(p) = payload {
                    std::panic::resume_unwind(p);
                }
            }));
        }
        // The acceptance is counted inside push_ring, under the same lock
        // that makes the ring visible to workers: a fast pool can finish
        // every shard only *after* `submitted` already reads right.
        self.injector.push_ring(query_id, ring);

        let ordered = prepared.slots_stream_sorted();
        let slot_prepared = Arc::clone(prepared);
        let prepared = Arc::clone(prepared);
        let stats = base_stats(log2_bound, &x);
        let assemble_state = Arc::clone(&state);
        let assemble_profile = Arc::clone(&profile);
        Ok(QueryHandle {
            inner: Some(HandleInner::Pending {
                state: Arc::clone(&state),
                injector: Arc::clone(&self.injector),
                profile: Arc::clone(&profile),
                slot_assemble: Box::new(move |rows| slot_prepared.assemble_slot(rows)),
                ordered,
                assemble: Box::new(move || {
                    let state = assemble_state;
                    state.wait();
                    assert!(
                        !state.poisoned.load(Ordering::Acquire),
                        "a service worker panicked while running a shard of this query"
                    );
                    let mut slots = state
                        .slots
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    let mut stats = stats;
                    let total = slots
                        .iter()
                        .map(|s| s.as_ref().map_or(0, |(r, _)| r.len()))
                        .sum();
                    let mut rows = RowBuf::with_capacity(prepared.total_order().len(), total);
                    // Deterministic merge: slot (= shard = root-value)
                    // order, regardless of the order the pool finished
                    // them in. Each shard's buffer is freed as soon as it
                    // has been copied across.
                    for slot in slots.iter_mut() {
                        let (shard_rows, shard_stats) = slot.take().expect("every shard completed");
                        rows.append(&shard_rows);
                        stats.absorb(&shard_stats);
                    }
                    drop(slots);
                    let out = prepared.assemble(rows, stats);
                    assemble_profile
                        .reassembled_ns
                        .store(assemble_profile.elapsed_ns().max(1), Ordering::Release);
                    out
                }),
            }),
        })
    }
}

impl Drop for Service {
    /// Graceful shutdown: workers drain the queue (so outstanding
    /// handles still resolve), then exit and are joined.
    fn drop(&mut self) {
        {
            // Set the flag while holding the queue mutex: a worker is
            // then either before its shutdown check (and will see the
            // flag) or already parked in wait() (and will get the
            // notification) — never in between, which would lose the
            // wakeup and deadlock the join below.
            let _queue = self.injector.lock();
            self.injector.shutdown.store(true, Ordering::Release);
        }
        self.injector.task_ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use wcoj_core::{join_with, Algorithm};
    use wcoj_storage::{HashTrieIndex, Schema};

    fn rel(schema: &[u32], rows: &[&[u32]]) -> Relation {
        Relation::from_u32_rows(Schema::of(schema), rows)
    }

    #[test]
    fn run_tasks_executes_all_without_counting_a_query() {
        let service = Service::new(ServiceConfig::with_workers(2));
        let before = service.counters();
        let hits = Arc::new(AtomicU64::new(0));
        let batch = service.run_tasks(
            (0..16)
                .map(|_| {
                    let hits = Arc::clone(&hits);
                    Box::new(move || {
                        hits.fetch_add(1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect(),
        );
        batch.wait();
        assert_eq!(hits.load(Ordering::Relaxed), 16);
        let after = service.counters();
        assert_eq!(after.submitted, before.submitted, "not a query");
        assert_eq!(after.in_flight, 0);
        assert_eq!(after.queued_tasks, 0, "ring fully drained");
        // empty batches settle immediately
        service.run_tasks(Vec::new()).wait();
        // a panicking task still counts down — wait() must not hang
        let batch = service.run_tasks(vec![
            Box::new(|| panic!("maintenance task blew up")) as Box<dyn FnOnce() + Send>,
            Box::new(|| {}) as Box<dyn FnOnce() + Send>,
        ]);
        batch.wait();
        // queries keep working after an aux panic
        let rels = triangle();
        let prepared = Arc::new(PreparedQuery::new(&rels).unwrap());
        let cfg = service.exec_config();
        let out = service.submit(&prepared, &cfg).unwrap().wait().unwrap();
        assert!(!out.relation.is_empty());
    }

    fn triangle() -> Vec<Relation> {
        vec![
            rel(&[0, 1], &[&[1, 2], &[1, 3]]),
            rel(&[1, 2], &[&[2, 4], &[3, 4]]),
            rel(&[0, 2], &[&[1, 4]]),
        ]
    }

    /// A blocker query for the admission tests: a 5-cycle whose *engine*
    /// run takes tens of milliseconds (even in release mode) while
    /// submitting it with the returned precomputed cover costs
    /// microseconds — so a blocker is reliably still in flight when the
    /// next submission's admission check runs.
    fn heavy_blocker(seed: u64) -> (Vec<Relation>, Arc<PreparedQuery>, Vec<f64>) {
        let rels = wcoj_datagen::cycle_instance(seed, 5, 400, 20);
        let prepared = Arc::new(PreparedQuery::new(&rels).unwrap());
        let (x, _) = prepared.resolve_cover(None).unwrap();
        (rels, prepared, x)
    }

    #[test]
    fn submit_and_wait_matches_sequential() {
        let service = Service::new(ServiceConfig::with_workers(3));
        let rels = [
            wcoj_datagen::random_relation(1, &[0, 1], 120, 12),
            wcoj_datagen::random_relation(2, &[1, 2], 120, 12),
            wcoj_datagen::random_relation(3, &[0, 2], 120, 12),
        ];
        let seq = join_with(&rels, Algorithm::Nprr, None).unwrap();
        let prepared = Arc::new(PreparedQuery::new(&rels).unwrap());
        let cfg = ExecConfig {
            shard_min_size: 1,
            ..service.exec_config()
        };
        let out = service.submit(&prepared, &cfg).unwrap().wait().unwrap();
        assert_eq!(out.relation, seq.relation);
        assert_eq!(out.stats.algorithm_used, "nprr-service");
        assert!(out.stats.shards >= 1);
        assert_eq!(service.submitted(), 1);
    }

    #[test]
    fn many_handles_in_flight_before_any_wait() {
        let service = Service::new(ServiceConfig::with_workers(2));
        let rels = triangle();
        let seq = join_with(&rels, Algorithm::Nprr, None).unwrap();
        let prepared = Arc::new(PreparedQuery::new(&rels).unwrap());
        let cfg = ExecConfig {
            shard_min_size: 1,
            ..service.exec_config()
        };
        let handles: Vec<QueryHandle> = (0..16)
            .map(|_| service.submit(&prepared, &cfg).unwrap())
            .collect();
        for handle in handles {
            assert_eq!(handle.wait().unwrap().relation, seq.relation);
        }
        assert_eq!(service.submitted(), 16);
        let counters = service.counters();
        assert_eq!(counters.completed, 16);
        assert_eq!(counters.in_flight, 0);
        assert_eq!(counters.queued_tasks, 0);
        assert_eq!(counters.shed, 0);
        assert_eq!(counters.cancelled, 0);
    }

    #[test]
    fn hash_backend_through_the_pool() {
        let service = Service::new(ServiceConfig::with_workers(4));
        let rels = triangle();
        let seq = join_with(&rels, Algorithm::Nprr, None).unwrap();
        let prepared = Arc::new(PreparedQuery::<HashTrieIndex>::new_indexed(&rels).unwrap());
        let cfg = ExecConfig {
            shard_min_size: 1,
            ..service.exec_config()
        };
        let out = service.submit(&prepared, &cfg).unwrap().wait().unwrap();
        assert_eq!(out.relation, seq.relation);
    }

    #[test]
    fn empty_input_and_zero_shard_resolve_at_submit() {
        let service = Service::new(ServiceConfig::with_workers(2));
        // all-empty / one-empty relation
        let prepared = Arc::new(
            PreparedQuery::new(&[
                rel(&[0, 1], &[&[1, 2]]),
                Relation::empty(Schema::of(&[1, 2])),
            ])
            .unwrap(),
        );
        let out = service
            .submit(&prepared, &service.exec_config())
            .unwrap()
            .wait()
            .unwrap();
        assert!(out.relation.is_empty());
        assert_eq!(out.relation.arity(), 3);
        assert_eq!(out.stats.shards, 0);

        // empty root-candidate intersection (zero-shard plan)
        let prepared = Arc::new(
            PreparedQuery::new(&[
                rel(&[0, 1], &[&[10, 1], &[10, 2]]),
                rel(&[1, 2], &[&[7, 20], &[8, 20]]),
                rel(&[0, 2], &[&[12, 20]]),
            ])
            .unwrap(),
        );
        let cfg = ExecConfig {
            shard_min_size: 1,
            ..service.exec_config()
        };
        assert!(service.shard_layout(&*prepared, &cfg).is_empty());
        let out = service.submit(&prepared, &cfg).unwrap().wait().unwrap();
        assert!(out.relation.is_empty());
        assert_eq!(out.relation.arity(), 3);
        assert_eq!(out.stats.shards, 0, "no shard task was ever scheduled");
        assert_eq!(out.stats.case_a + out.stats.case_b, 0);

        // nullary queries still produce their single "true" row
        let prepared = Arc::new(PreparedQuery::new(&[Relation::nullary_true()]).unwrap());
        let out = service.submit(&prepared, &cfg).unwrap().wait().unwrap();
        assert_eq!(out.relation.len(), 1);
        assert_eq!(out.relation.arity(), 0);
    }

    /// Satellite pin-down: `submitted` counts every *accepted* submit —
    /// including degenerate queries resolved at submit time — and never
    /// counts planning-error or shed submissions. Accepted queries all
    /// eventually count as `completed`, and admission slots drain back to
    /// zero.
    #[test]
    fn submitted_counter_semantics() {
        let service = Service::new(ServiceConfig::with_workers(2));
        let cfg = ExecConfig {
            shard_min_size: 1,
            ..service.exec_config()
        };

        // 1. a normal multi-shard query: counted
        let populated = Arc::new(PreparedQuery::new(&triangle()).unwrap());
        service.submit(&populated, &cfg).unwrap().wait().unwrap();
        assert_eq!(service.submitted(), 1);

        // 2. empty-input degenerate: counted (accepted, resolved at
        //    submit)
        let empty_input = Arc::new(
            PreparedQuery::new(&[
                rel(&[0, 1], &[&[1, 2]]),
                Relation::empty(Schema::of(&[1, 2])),
            ])
            .unwrap(),
        );
        service.submit(&empty_input, &cfg).unwrap().wait().unwrap();
        assert_eq!(service.submitted(), 2);

        // 3. zero-shard plan (empty root-candidate intersection): counted
        let zero_shard = Arc::new(
            PreparedQuery::new(&[
                rel(&[0, 1], &[&[10, 1], &[10, 2]]),
                rel(&[1, 2], &[&[7, 20], &[8, 20]]),
                rel(&[0, 2], &[&[12, 20]]),
            ])
            .unwrap(),
        );
        service.submit(&zero_shard, &cfg).unwrap().wait().unwrap();
        assert_eq!(service.submitted(), 3);

        // 4. a bad cover (planning error): NOT counted
        let err = service.submit_with_cover(&populated, Some(&[0.1, 0.1, 0.1]), &cfg);
        assert!(matches!(err, Err(SubmitError::Query(_))));
        assert_eq!(service.submitted(), 3, "LP-error submissions don't count");

        let counters = service.counters();
        assert_eq!(counters.submitted, 3);
        assert_eq!(counters.completed, 3, "degenerate resolutions complete");
        assert_eq!(counters.shed, 0);
        assert_eq!(counters.in_flight, 0, "every slot released");
    }

    /// The acceptance-criterion shape: with queue bound Q on a 2-worker
    /// pool, a burst sheds the (Q+1)-th submission with
    /// `SubmitError::Overloaded`, sheds are counted (not silently
    /// dropped), and every accepted handle still resolves bit-identically.
    #[test]
    fn burst_past_queue_depth_sheds_deterministically() {
        const Q: usize = 3;
        let service = Service::new(ServiceConfig::with_workers(2).with_queue_depth(Q));
        assert_eq!(service.queue_depth(), Q);
        // The blocker's engine run takes tens of milliseconds while each
        // burst submission below costs microseconds (precomputed cover,
        // and the admission check precedes all planning), so none of the
        // admitted queries can finish before the burst loop ends.
        let (heavy_rels, heavy, x) = heavy_blocker(11);
        let seq = join_with(&heavy_rels, Algorithm::Nprr, None).unwrap();
        let cfg = ExecConfig {
            shard_min_size: 1,
            ..service.exec_config()
        };

        let accepted: Vec<QueryHandle> = (0..Q)
            .map(|i| {
                service
                    .submit_with_cover(&heavy, Some(&x), &cfg)
                    .unwrap_or_else(|e| panic!("submission {i} within the bound accepted: {e}"))
            })
            .collect();
        // The (Q+1)-th burst submission is shed.
        match service.submit_with_cover(&heavy, Some(&x), &cfg) {
            Err(SubmitError::Overloaded {
                in_flight,
                queue_depth,
            }) => {
                assert_eq!(in_flight, Q);
                assert_eq!(queue_depth, Q);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(service.counters().shed, 1, "the shed is reported");
        assert_eq!(
            service.submitted(),
            Q as u64,
            "shed submissions don't count"
        );

        // Every accepted handle resolves bit-identically to join_nprr.
        for handle in accepted {
            let out = handle.wait().unwrap();
            assert_eq!(out.relation, seq.relation);
        }
        // With the queue drained, submissions are admitted again.
        let out = service.submit(&heavy, &cfg).unwrap().wait().unwrap();
        assert_eq!(out.relation, seq.relation);
        assert_eq!(service.counters().in_flight, 0);
    }

    #[test]
    fn blocking_and_deadline_submission_under_overload() {
        let service = Service::new(ServiceConfig::with_workers(1).with_queue_depth(1));
        let (heavy_rels, heavy, x) = heavy_blocker(13);
        let seq = join_with(&heavy_rels, Algorithm::Nprr, None).unwrap();
        let cfg = ExecConfig {
            shard_min_size: 1,
            ..service.exec_config()
        };

        let first = service.submit_with_cover(&heavy, Some(&x), &cfg).unwrap();
        // Full: a zero-deadline submission sheds…
        match service.try_submit_timeout(&heavy, &cfg, Duration::ZERO) {
            Err(SubmitError::Overloaded { .. }) => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // …while a blocking submission waits for the slot and succeeds.
        let blocked = service.submit_blocking(&heavy, &cfg).unwrap();
        assert_eq!(first.wait().unwrap().relation, seq.relation);
        assert_eq!(blocked.wait().unwrap().relation, seq.relation);
        // A generous deadline also gets through once the queue is idle.
        let timed = service
            .try_submit_timeout(&heavy, &cfg, Duration::from_secs(60))
            .unwrap();
        assert_eq!(timed.wait().unwrap().relation, seq.relation);
        let counters = service.counters();
        assert_eq!(counters.submitted, 3);
        assert_eq!(counters.shed, 1);
        assert_eq!(counters.in_flight, 0);
    }

    #[test]
    fn dropped_handle_cancels_remaining_tasks() {
        // One worker: after the handle is dropped mid-run, the remaining
        // ring entries are popped but skipped instead of burning the pool.
        let service = Service::new(ServiceConfig::with_workers(1));
        let (_, heavy, x) = heavy_blocker(17);
        let cfg = ExecConfig {
            shard_min_size: 1,
            ..service.exec_config()
        };
        let layout = service.shard_layout(&*heavy, &cfg);
        assert!(layout.len() >= 3, "the plan is multi-task: {layout:?}");

        let handle = service.submit_with_cover(&heavy, Some(&x), &cfg).unwrap();
        drop(handle); // cancel
        assert_eq!(service.counters().cancelled, 1);

        // The pool still serves other queries correctly afterwards…
        let rels = triangle();
        let seq = join_with(&rels, Algorithm::Nprr, None).unwrap();
        let small = Arc::new(PreparedQuery::new(&rels).unwrap());
        let out = service.submit(&small, &cfg).unwrap().wait().unwrap();
        assert_eq!(out.relation, seq.relation);

        // …and once the cancelled ring drains, its skipped tasks show up
        // in the counters and its admission slot is released.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let c = service.counters();
            if c.in_flight == 0 && c.queued_tasks == 0 {
                assert!(
                    c.skipped_tasks >= 1,
                    "cancellation skipped work: {c:?} (layout {})",
                    layout.len()
                );
                assert_eq!(c.completed, 2, "cancelled query still drains");
                break;
            }
            assert!(Instant::now() < deadline, "cancelled query never drained");
            std::thread::yield_now();
        }
    }

    #[test]
    fn bad_cover_rejected_at_submit() {
        let service = Service::new(ServiceConfig::with_workers(2));
        let prepared = Arc::new(PreparedQuery::new(&triangle()).unwrap());
        let err =
            service.submit_with_cover(&prepared, Some(&[0.1, 0.1, 0.1]), &ExecConfig::default());
        assert!(err.is_err());
        // explicit valid cover works
        let out = service
            .submit_with_cover(&prepared, Some(&[1.0, 1.0, 1.0]), &ExecConfig::default())
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(out.relation.len(), 2);
    }

    #[test]
    fn submit_error_conversions_and_display() {
        let overload = SubmitError::Overloaded {
            in_flight: 4,
            queue_depth: 4,
        };
        assert_eq!(QueryError::from(overload.clone()), QueryError::Overloaded);
        assert!(overload.to_string().contains("overloaded"));
        let bad = SubmitError::Query(QueryError::BadCover("nope".into()));
        assert_eq!(
            QueryError::from(bad),
            QueryError::BadCover("nope".into()),
            "planning errors round-trip unchanged"
        );
        assert!(QueryError::Overloaded.to_string().contains("overloaded"));
    }

    #[test]
    fn queue_depth_from_env() {
        // Clear any ambient override first: WCOJ_QUEUE_DEPTH is exactly
        // the knob a CI job or developer shell might export. (No other
        // test in this binary touches process env vars.)
        std::env::remove_var("WCOJ_QUEUE_DEPTH");
        assert_eq!(
            ServiceConfig::from_env().queue_depth,
            0,
            "unset → unbounded"
        );
        std::env::set_var("WCOJ_QUEUE_DEPTH", "7");
        let cfg = ServiceConfig::from_env();
        std::env::remove_var("WCOJ_QUEUE_DEPTH");
        assert_eq!(cfg.queue_depth, 7);
        // malformed values warn (once) and fall back to unbounded
        std::env::set_var("WCOJ_QUEUE_DEPTH", "lots");
        let cfg = ServiceConfig::from_env();
        std::env::remove_var("WCOJ_QUEUE_DEPTH");
        assert_eq!(cfg.queue_depth, 0);
        assert!(
            wcoj_exec::malformed_env_warnings()
                .iter()
                .any(|k| k == "WCOJ_QUEUE_DEPTH"),
            "fallback is signalled, not silent"
        );
    }

    /// Satellite pin-down: a [`Service::counters`] snapshot taken at any
    /// moment — while queries are admitted, running, finishing, and being
    /// cancelled — is internally consistent. Before the counters moved
    /// under the scheduler lock, a snapshot racing a fast pool could see
    /// `completed > submitted` (the ring was pushed and fully drained
    /// between the two atomic reads).
    #[test]
    fn counters_snapshots_are_internally_consistent() {
        let service = Arc::new(Service::new(ServiceConfig::with_workers(2)));
        let rels = triangle();
        let prepared = Arc::new(PreparedQuery::new(&rels).unwrap());
        let cfg = ExecConfig {
            shard_min_size: 1,
            ..service.exec_config()
        };

        let stop = Arc::new(AtomicBool::new(false));
        // The churn below must not start (let alone finish) before the
        // observer is running: it reports its first sample here.
        let (first_sample, observing) = mpsc::channel();
        let observer = {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut samples = 0_u64;
                while !stop.load(Ordering::Acquire) {
                    let c = service.counters();
                    assert!(c.completed <= c.submitted, "inconsistent snapshot: {c:?}");
                    assert!(
                        c.completed + c.in_flight as u64 >= c.submitted,
                        "an accepted query is neither in flight nor completed: {c:?}"
                    );
                    assert!(
                        c.queued_tasks == 0 || c.in_flight > 0,
                        "queued tasks without an in-flight query: {c:?}"
                    );
                    samples += 1;
                    if samples == 1 {
                        first_sample.send(()).expect("the test waits for it");
                    }
                }
                samples
            })
        };
        observing
            .recv()
            .expect("the observer took its first sample");

        // Churn: plenty of waits, plus dropped handles (cancellations).
        for round in 0..60 {
            let h1 = service.submit(&prepared, &cfg).unwrap();
            let h2 = service.submit(&prepared, &cfg).unwrap();
            if round % 3 == 0 {
                drop(h1);
            } else {
                h1.wait().unwrap();
            }
            h2.wait().unwrap();
        }
        // Quiescence: everything drains.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let c = service.counters();
            if c.in_flight == 0 && c.queued_tasks == 0 {
                assert_eq!(c.submitted, 120);
                assert_eq!(c.completed, 120, "cancelled queries still drain");
                // ≤ 20: a drop racing the final task counts only if work
                // was actually left to skip.
                assert!(c.cancelled <= 20, "{c:?}");
                break;
            }
            assert!(Instant::now() < deadline, "service never drained: {c:?}");
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Release);
        let samples = observer.join().unwrap();
        assert!(samples > 0, "the observer actually sampled");
    }

    /// The tentpole acceptance shape: a multi-shard query's profile has
    /// monotone lifecycle phases, one entry per shard, and per-shard rows
    /// and stats that reassemble exactly into the final output.
    #[test]
    fn profile_covers_every_shard_and_phases_are_monotone() {
        let service = Service::new(ServiceConfig::with_workers(3));
        let rels = [
            wcoj_datagen::random_relation(21, &[0, 1], 150, 14),
            wcoj_datagen::random_relation(22, &[1, 2], 150, 14),
            wcoj_datagen::random_relation(23, &[0, 2], 150, 14),
        ];
        let seq = join_with(&rels, Algorithm::Nprr, None).unwrap();
        let prepared = Arc::new(PreparedQuery::new(&rels).unwrap());
        let cfg = ExecConfig {
            shard_min_size: 1,
            ..service.exec_config()
        };
        let layout = service.shard_layout(&*prepared, &cfg);
        assert!(layout.len() >= 2, "multi-shard plan: {}", layout.len());

        let handle = service.submit(&prepared, &cfg).unwrap();
        let (out, profile) = handle.wait_profiled().unwrap();
        assert_eq!(out.relation, seq.relation, "profiling changes no output");

        assert!(profile.query_id > 0);
        assert!(!profile.cancelled);
        assert_eq!(profile.total_shards, layout.len());
        assert!(profile.is_complete());
        assert_eq!(profile.shards.len(), layout.len());

        // Phases exist and are monotone: admitted ≤ planned ≤
        // first_dispatch ≤ last_finish ≤ reassembled.
        let planned = profile.planned.expect("planning ran");
        let first = profile.first_dispatch.expect("tasks dispatched");
        let last = profile.last_finish.expect("finished");
        let reassembled = profile.reassembled.expect("waited");
        assert!(profile.admitted <= planned, "{profile:?}");
        assert!(planned <= first, "{profile:?}");
        assert!(first <= last, "{profile:?}");
        assert!(last <= reassembled, "{profile:?}");

        // Per-shard breakdown: slot order, no skips, rows sum to the
        // output (shards partition the root domain), stats reassemble.
        let mut stats = JoinStats::default();
        for (slot, shard) in profile.shards.iter().enumerate() {
            assert_eq!(shard.slot, slot, "slot order");
            assert!(!shard.skipped);
            stats.absorb(&shard.stats);
        }
        assert_eq!(profile.total_rows(), out.relation.len() as u64);
        assert_eq!(
            stats.case_a + stats.case_b,
            out.stats.case_a + out.stats.case_b
        );
        assert_eq!(stats.shards, out.stats.shards);
    }

    #[test]
    fn degenerate_and_cancelled_profiles() {
        let service = Service::new(ServiceConfig::with_workers(1));
        let cfg = ExecConfig {
            shard_min_size: 1,
            ..service.exec_config()
        };

        // Empty input: no planning, no dispatch, reassembled at submit.
        let empty_input = Arc::new(
            PreparedQuery::new(&[
                rel(&[0, 1], &[&[1, 2]]),
                Relation::empty(Schema::of(&[1, 2])),
            ])
            .unwrap(),
        );
        let handle = service.submit(&empty_input, &cfg).unwrap();
        let profile = handle.profile();
        assert_eq!(profile.total_shards, 0);
        assert!(profile.planned.is_none(), "planning never ran");
        assert!(profile.first_dispatch.is_none());
        assert!(profile.reassembled.is_some(), "resolved at submit");
        assert!(profile.is_complete());
        let (out, profile) = handle.wait_profiled().unwrap();
        assert!(out.relation.is_empty());
        assert_eq!(profile.total_rows(), 0);

        // Zero-shard plan: planning ran, still no dispatch.
        let zero_shard = Arc::new(
            PreparedQuery::new(&[
                rel(&[0, 1], &[&[10, 1], &[10, 2]]),
                rel(&[1, 2], &[&[7, 20], &[8, 20]]),
                rel(&[0, 2], &[&[12, 20]]),
            ])
            .unwrap(),
        );
        let profile = service.submit(&zero_shard, &cfg).unwrap().profile();
        assert!(profile.planned.is_some(), "planning ran");
        assert!(profile.first_dispatch.is_none());
        assert_eq!(profile.total_shards, 0);

        // Cancelled: the snapshot taken later shows the cancellation and
        // skipped shards.
        let (_, heavy, x) = heavy_blocker(29);
        let handle = service.submit_with_cover(&heavy, Some(&x), &cfg).unwrap();
        let pending_profile = handle.profile();
        assert!(pending_profile.total_shards >= 3);
        drop(handle);
        // Drain, then confirm skips landed in the counters (the profile
        // itself died with the handle — counters are the surviving view).
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let c = service.counters();
            if c.in_flight == 0 && c.queued_tasks == 0 {
                assert!(c.skipped_tasks >= 1);
                break;
            }
            assert!(Instant::now() < deadline, "cancelled query never drained");
            std::thread::yield_now();
        }
    }

    /// With obs off the service still produces identical outputs and
    /// complete (if zero-duration) profiles — the no-op arm of the
    /// `e17_obs_overhead` bench.
    #[test]
    fn obs_off_keeps_outputs_and_profile_shape() {
        let service = Service::new(ServiceConfig::with_workers(2).with_obs(false));
        let rels = triangle();
        let seq = join_with(&rels, Algorithm::Nprr, None).unwrap();
        let prepared = Arc::new(PreparedQuery::new(&rels).unwrap());
        let cfg = ExecConfig {
            shard_min_size: 1,
            ..service.exec_config()
        };
        let (out, profile) = service
            .submit(&prepared, &cfg)
            .unwrap()
            .wait_profiled()
            .unwrap();
        assert_eq!(out.relation, seq.relation);
        assert!(profile.is_complete());
        assert!(profile.total_shards >= 1);
        // Per-task durations collapse to zero, but rows/stats stay exact.
        for shard in &profile.shards {
            assert_eq!(shard.queue_wait, Duration::ZERO);
            assert_eq!(shard.run, Duration::ZERO);
        }
        assert_eq!(profile.total_rows(), out.relation.len() as u64);
        assert_eq!(profile.first_dispatch, Some(Duration::ZERO));
        // Lifecycle marks taken on the submit path still tick.
        assert!(profile.reassembled.is_some());
        let counters = service.counters();
        assert_eq!(counters.submitted, 1, "accounting is not gated by obs");
        assert_eq!(counters.completed, 1);
    }

    /// Scheduler decisions land in the global trace ring when the level
    /// is raised — filtered by this test's own query ids, because the
    /// ring is process-wide and other tests run concurrently.
    #[test]
    fn trace_ring_records_scheduler_decisions() {
        let ring = trace();
        let saved = ring.level();
        ring.set_level(TraceLevel::Summary);

        let service = Service::new(ServiceConfig::with_workers(1).with_queue_depth(1));
        let (_, heavy, x) = heavy_blocker(31);
        let cfg = ExecConfig {
            shard_min_size: 1,
            ..service.exec_config()
        };
        let first = service.submit_with_cover(&heavy, Some(&x), &cfg).unwrap();
        let first_id = first.profile().query_id;
        // Overload: the second submission sheds.
        let shed = service.submit_with_cover(&heavy, Some(&x), &cfg);
        assert!(matches!(shed, Err(SubmitError::Overloaded { .. })));
        first.wait().unwrap();

        let events = ring.drain();
        ring.set_level(saved);
        let admitted = events.iter().any(
            |e| matches!(e, TraceEvent::Admit { query, tasks } if *query == first_id && *tasks > 0),
        );
        let finished = events
            .iter()
            .any(|e| matches!(e, TraceEvent::Finish { query } if *query == first_id));
        let shed_seen = events.iter().any(|e| matches!(e, TraceEvent::Shed { .. }));
        assert!(admitted, "Admit traced: {events:?}");
        assert!(finished, "Finish traced: {events:?}");
        assert!(shed_seen, "Shed traced: {events:?}");
    }

    /// The global registry mirrors the service counters (as deltas — the
    /// registry is process-wide and shared with other tests).
    #[test]
    fn global_registry_mirrors_service_activity() {
        let m = ServiceMetrics::get();
        let submitted_before = m.submitted.get();
        let completed_before = m.completed.get();
        let latency_before = m.query_latency_us.snapshot().count;

        let service = Service::new(ServiceConfig::with_workers(2));
        let prepared = Arc::new(PreparedQuery::new(&triangle()).unwrap());
        let cfg = ExecConfig {
            shard_min_size: 1,
            ..service.exec_config()
        };
        for _ in 0..3 {
            service.submit(&prepared, &cfg).unwrap().wait().unwrap();
        }

        assert!(m.submitted.get() >= submitted_before + 3);
        assert!(m.completed.get() >= completed_before + 3);
        assert!(m.query_latency_us.snapshot().count >= latency_before + 3);
        let text = wcoj_obs::global().render_prometheus();
        assert!(text.contains("wcoj_service_submitted_total"));
        assert!(text.contains("wcoj_query_latency_us_bucket"));
        wcoj_obs::check_exposition(&text).expect("exposition format is valid");
    }

    #[test]
    fn join_convenience_and_drop_drains() {
        let seq = join_with(&triangle(), Algorithm::Nprr, None).unwrap();
        let handle;
        {
            let service = Service::new(ServiceConfig::with_workers(2));
            let prepared = Arc::new(PreparedQuery::new(&triangle()).unwrap());
            let out = service
                .submit(&prepared, &service.exec_config())
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(out.relation, seq.relation);
            // a handle may outlive the service: drop drains the queue
            let cfg = ExecConfig {
                shard_min_size: 1,
                ..ExecConfig::default()
            };
            handle = service.submit(&prepared, &cfg).unwrap();
        } // service dropped here
        assert_eq!(handle.wait().unwrap().relation, seq.relation);
    }

    #[test]
    fn row_stream_concatenates_in_order_for_a_canonical_total_order() {
        let service = Service::new(ServiceConfig::with_workers(3));
        // A single-atom query keeps the identity total order, so slot
        // batches concatenate to the output with no final sort.
        let rels = [wcoj_datagen::random_relation(5, &[0, 1], 150, 14)];
        let prepared = Arc::new(PreparedQuery::new(&rels).unwrap());
        let cfg = ExecConfig {
            shard_min_size: 1,
            ..service.exec_config()
        };
        let expected = service
            .submit(&prepared, &cfg)
            .unwrap()
            .wait()
            .unwrap()
            .relation;

        let mut stream = service.submit(&prepared, &cfg).unwrap().into_stream();
        assert!(stream.ordered(), "identity order streams sorted");
        assert!(stream.total_slots() >= 2, "multi-shard plan: {stream:?}");
        let total = stream.total_slots();
        let mut merged = Relation::empty(expected.schema().clone());
        let mut slots_seen = 0;
        while let Some(batch) = stream.next_batch() {
            let batch = batch.unwrap();
            assert_eq!(batch.slot, slots_seen, "ascending slot order");
            slots_seen += 1;
            assert_eq!(stream.slots_emitted(), slots_seen);
            for row in batch.relation.iter_rows() {
                merged.push_row(row).unwrap();
            }
        }
        assert_eq!(slots_seen, total);
        assert!(stream.is_finished());
        // Plain concatenation — batches were never re-sorted — is the
        // full output, byte for byte.
        assert_eq!(merged, expected);
    }

    #[test]
    fn row_stream_merge_matches_wait_for_any_total_order() {
        let service = Service::new(ServiceConfig::with_workers(3));
        let rels = triangle();
        let prepared = Arc::new(PreparedQuery::new(&rels).unwrap());
        let cfg = ExecConfig {
            shard_min_size: 1,
            ..service.exec_config()
        };
        let expected = service
            .submit(&prepared, &cfg)
            .unwrap()
            .wait()
            .unwrap()
            .relation;

        let mut stream = service.submit(&prepared, &cfg).unwrap().into_stream();
        assert_eq!(stream.ordered(), prepared.slots_stream_sorted());
        // The universal consumer contract: concatenate every batch, one
        // final sort+dedup, equals wait() regardless of `ordered`.
        let mut merged = Relation::empty(expected.schema().clone());
        while let Some(batch) = stream.next_batch() {
            for row in batch.unwrap().relation.iter_rows() {
                merged.push_row(row).unwrap();
            }
        }
        merged.sort_dedup();
        assert_eq!(merged, expected);
    }

    #[test]
    fn next_merged_yields_the_remaining_slots_as_one_sorted_batch() {
        let service = Service::new(ServiceConfig::with_workers(2));
        // The 4-cycle has no output-ordered plan.
        let rels = wcoj_datagen::cycle_instance(61, 4, 150, 14);
        let prepared = Arc::new(PreparedQuery::new(&rels).unwrap());
        assert!(!prepared.slots_stream_sorted(), "the merge is needed");
        let cfg = ExecConfig {
            shard_min_size: 1,
            ..service.exec_config()
        };
        let expected = join_with(&rels, Algorithm::Nprr, None).unwrap().relation;

        // From the start: the whole output, bit-identical to sequential.
        let mut stream = service.submit(&prepared, &cfg).unwrap().into_stream();
        assert!(stream.total_slots() >= 3);
        let all = stream.next_merged().unwrap().unwrap();
        assert_eq!((all.slot, &all.relation), (0, &expected));
        assert_eq!(stream.slots_emitted(), stream.total_slots());
        assert!(stream.next_merged().is_none() && stream.next_batch().is_none());

        // Mid-stream: the first slot on its own, the rest merged.
        let mut stream = service.submit(&prepared, &cfg).unwrap().into_stream();
        let first = stream.next_batch().unwrap().unwrap();
        let rest = stream.next_merged().unwrap().unwrap();
        assert_eq!((first.slot, rest.slot), (0, 1));
        let mut merged = first.relation;
        for row in rest.relation.iter_rows() {
            merged.push_row(row).unwrap();
        }
        merged.sort_dedup();
        assert_eq!(merged, expected);
        assert!(stream.next_merged().is_none());
    }

    #[test]
    fn degenerate_submissions_stream_a_single_batch() {
        let service = Service::new(ServiceConfig::with_workers(1));
        let prepared = Arc::new(
            PreparedQuery::new(&[
                rel(&[0, 1], &[&[1, 2]]),
                Relation::empty(Schema::of(&[1, 2])),
            ])
            .unwrap(),
        );
        let mut stream = service
            .submit(&prepared, &service.exec_config())
            .unwrap()
            .into_stream();
        assert!(stream.ordered());
        assert!(stream.is_finished());
        assert_eq!(stream.total_slots(), 1);
        stream.wait_settled(); // no-op on a ready stream
        let batch = stream.next_batch().unwrap().unwrap();
        assert_eq!(batch.slot, 0);
        assert!(batch.relation.is_empty());
        assert_eq!(batch.relation.arity(), 3);
        assert!(stream.next_batch().is_none() && stream.next_merged().is_none());
        assert_eq!(stream.slots_emitted(), 1);
    }

    #[test]
    fn wait_settled_then_batches_arrive_without_blocking() {
        let service = Service::new(ServiceConfig::with_workers(2));
        let rels = triangle();
        let seq = join_with(&rels, Algorithm::Nprr, None).unwrap();
        let prepared = Arc::new(PreparedQuery::new(&rels).unwrap());
        let cfg = ExecConfig {
            shard_min_size: 1,
            ..service.exec_config()
        };
        let mut stream = service.submit(&prepared, &cfg).unwrap().into_stream();
        stream.wait_settled();
        assert!(stream.is_finished());
        let mut merged = Relation::empty(seq.relation.schema().clone());
        while let Some(batch) = stream.next_batch() {
            for row in batch.unwrap().relation.iter_rows() {
                merged.push_row(row).unwrap();
            }
        }
        merged.sort_dedup();
        assert_eq!(merged, seq.relation);
        // Fully drained stream: dropping it must NOT count a cancellation.
        drop(stream);
        assert_eq!(service.counters().cancelled, 0);
    }

    /// Parks one worker inside an auxiliary task: returns a receiver that
    /// fires once the task is running and a sender that lets it finish.
    fn pin_worker(service: &Service) -> (mpsc::Receiver<()>, mpsc::Sender<()>, TaskBatch) {
        let (running, pinned) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        let batch = service.run_tasks(vec![Box::new(move || {
            let _ = running.send(());
            let _ = released.recv();
        })]);
        (pinned, release, batch)
    }

    #[test]
    fn dropped_stream_cancels_remaining_tasks() {
        // The HTTP disconnect-mid-stream path: one worker, a heavy
        // multi-shard query, the consumer reads the first batch and then
        // goes away. The remaining shards must be skipped and the
        // admission slot freed — a vanished client cannot leak capacity.
        let service = Service::new(ServiceConfig::with_workers(1));
        let (_, heavy, x) = heavy_blocker(23);
        let cfg = ExecConfig {
            shard_min_size: 1,
            ..service.exec_config()
        };
        let layout = service.shard_layout(&*heavy, &cfg);
        assert!(layout.len() >= 3, "the plan is multi-task: {layout:?}");

        // Force the interleaving instead of racing the engine: with the
        // worker parked, queue the query's ring and a second pin behind
        // it. Round-robin then runs shard 0, rotates to the pin, and
        // parks again with every other shard still queued.
        let (pinned, release_first, first_pin) = pin_worker(&service);
        pinned.recv().expect("the worker is parked");
        let mut stream = service
            .submit_with_cover(&heavy, Some(&x), &cfg)
            .unwrap()
            .into_stream();
        let (pinned_again, release_second, second_pin) = pin_worker(&service);
        release_first.send(()).unwrap();
        let first = stream.next_batch().unwrap().unwrap();
        assert_eq!(first.slot, 0);
        pinned_again
            .recv()
            .expect("the worker is parked behind shard 0");
        drop(stream); // client disconnected mid-stream
        assert_eq!(service.counters().cancelled, 1);
        release_second.send(()).unwrap();
        first_pin.wait();
        second_pin.wait();

        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let c = service.counters();
            if c.in_flight == 0 && c.queued_tasks == 0 {
                assert_eq!(
                    c.skipped_tasks,
                    layout.len() as u64 - 1,
                    "every shard after the first was skipped: {c:?}"
                );
                assert_eq!(c.completed, 1, "cancelled query still drains");
                break;
            }
            assert!(Instant::now() < deadline, "cancelled query never drained");
            std::thread::yield_now();
        }
    }
}
