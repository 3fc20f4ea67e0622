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
//! * **One way in**: [`Service::submit`] is the only way a query reaches
//!   the pool. It resolves the prepared query's memoized LP-optimal cover
//!   and plans its shards with the one shard planner
//!   ([`wcoj_exec::plan_shards`] over
//!   [`PreparedQuery::root_candidate_weights`]). The plan is
//!   **two-level**: heavy root values get singleton shards so one hot
//!   key cannot drag its neighbours along, and a value heavy enough to
//!   span several work targets is further broken into *anchor
//!   sub-shards* (`RootShard::anchor` ranges over the level-1 attribute,
//!   [`ExecConfig::heavy_split_factor`]) so even a single hot key
//!   spreads across the pool. Submission pushes the tasks as one
//!   per-query **ring** and returns a [`QueryHandle`] immediately — it
//!   never blocks on other queries.
//! * **Admission control only sheds**: [`ServiceConfig::queue_depth`]
//!   bounds how many queries may be admitted-but-unfinished at once (env
//!   `WCOJ_QUEUE_DEPTH` via [`ServiceConfig::from_env`]; `0` =
//!   unbounded). At the bound, [`Service::submit`] returns
//!   [`SubmitError::Overloaded`] at once, without planning or scheduling
//!   anything — the 429 of this scheduler. Admission never waits, so the
//!   queue cannot grow without limit under a submission burst, and a
//!   caller that prefers delay retries on its own clock (the HTTP front
//!   end answers `429` + `Retry-After`).
//! * **Fair dispatch**: workers drain the per-query rings **round-robin,
//!   one task at a time**, so shards of concurrent queries interleave by
//!   construction — a 10k-sub-shard hot-key query no longer
//!   head-of-line-blocks a 3-shard triangle query submitted just after
//!   it. Each task runs the sequential engine restricted to its root
//!   range — and, for a sub-shard, its anchor range —
//!   ([`PreparedQuery::run_shard`]) against the query's shared, immutable
//!   indexes.
//! * **One way out**: each shard's rows land in the query's slot for it,
//!   and a [`QueryHandle`] takes the slots **in slot order** — root-value
//!   order, then anchor order within a sub-split root value.
//!   [`QueryHandle::next_batch`] yields one slot as soon as it settles,
//!   [`QueryHandle::next_merged`] every remaining slot as one batch, and
//!   [`QueryHandle::wait`] is `next_merged` plus the per-shard
//!   [`JoinStats`] folded with [`JoinStats::absorb`] in slot order. The
//!   last shard to drain counts its query finished in the critical
//!   section that publishes its rows, so once `wait` returns the
//!   admission slot is free. The output relation is bit-identical to the
//!   sequential
//!   [`join_nprr`](wcoj_core::nprr::join_nprr), no matter how the pool
//!   interleaved the shards (dispatch order never reaches the output, so
//!   fairness is free of correctness risk).
//! * **Cancellation**: dropping a [`QueryHandle`] before it took every
//!   slot marks the query cancelled; workers still pop its queued tasks
//!   but *skip* the engine run, so an abandoned handle stops burning the
//!   pool almost immediately (and its admission slot is released when the
//!   ring drains). A shard whose engine run panics fails its query with
//!   [`QueryError::ShardPanicked`]; the pool keeps serving.
//! * **Observability**: [`Service::counters`] snapshots lifetime
//!   `submitted` / `completed` / `shed` / `cancelled` / `skipped_tasks`
//!   plus instantaneous `in_flight` and `queued_tasks` — taken under the
//!   scheduler lock, so every snapshot is *internally consistent* (never
//!   `completed > submitted`, never `queued_tasks > 0` with `in_flight ==
//!   0`). The service also feeds the process-wide `wcoj-obs` metrics
//!   registry (counters, gauges, and latency histograms —
//!   `wcoj_obs::global().render_prometheus()` is a `/metrics` endpoint
//!   body) and records per-query [`QueryProfile`]s: lifecycle phase
//!   timestamps (admitted → planned → first/last task → reassembled) plus
//!   a per-shard breakdown (queue wait, run time, rows, [`JoinStats`])
//!   via [`QueryHandle::profile`] / [`QueryHandle::wait_profiled`].
//!   Timestamps are taken at *task* granularity only, never per tuple.
//!
//! Degenerate queries never touch the pool: an empty input relation or an
//! empty root-candidate intersection (a *zero-shard plan*) resolves to a
//! finished handle at submit time (it still occupies — and immediately
//! releases — an admission slot, so a burst of degenerate queries cannot
//! starve real ones).
//!
//! With [`ServiceConfig::workers`] `= 0` there is no pool: [`Service::submit`]
//! runs the query's one unrestricted task (layout `[None]`) on the calling
//! thread, through the closure a worker runs, so its output is exactly
//! [`PreparedQuery::evaluate`]'s.
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
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wcoj_core::nprr::{PreparedQuery, RootShard};
use wcoj_core::{JoinOutput, JoinStats, QueryError};
use wcoj_exec::{plan_shards, ExecConfig, OVERSPLIT};
use wcoj_obs::{Counter, Gauge, Histogram};
use wcoj_storage::{Relation, RowBuf, SearchTree};

/// Stats label reported by service-scheduled runs.
const ALGORITHM: &str = "nprr-service";

/// Configuration of a [`Service`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads in the shared pool: the parallelism of the whole
    /// process, not of one query. Each query's plan is sized for
    /// `workers × OVERSPLIT` shards. `0` spawns no thread: each query runs
    /// as one task on the thread that submits it (a new
    /// `wcoj_query::Catalog` attaches such a service).
    pub workers: usize,
    /// Default per-query planning knobs, recommended for
    /// [`Service::submit`] via [`Service::exec_config`] (the catalog
    /// routes use them): `shard_min_size` and `heavy_split_factor` steer
    /// the per-query shard plan ([`wcoj_exec::plan_shards`]).
    pub exec: ExecConfig,
    /// Admission bound: the maximum number of queries that may be
    /// admitted-but-unfinished (queued or running) at once. `0` (the
    /// default) means unbounded — the pre-admission-control behaviour.
    /// At the bound, [`Service::submit`] sheds with
    /// [`SubmitError::Overloaded`]. Degenerate submissions (resolved at
    /// submit time) acquire and immediately release a slot, so they are
    /// also shed under overload — admission stays a pure front-door check
    /// that costs no planning.
    pub queue_depth: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            exec: ExecConfig::default(),
            queue_depth: 0,
        }
    }
}

impl ServiceConfig {
    /// A config with `workers` pool threads (at least one) and default
    /// planning knobs.
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

    /// Default config with the admission bound overridden by the
    /// `WCOJ_QUEUE_DEPTH` environment variable when set (malformed values
    /// warn once and fall back, like every numeric `WCOJ_*` knob — see
    /// [`wcoj_exec::read_env_usize`]).
    #[must_use]
    pub fn from_env() -> ServiceConfig {
        let mut cfg = ServiceConfig::default();
        if let Some(d) = wcoj_exec::read_env_usize("WCOJ_QUEUE_DEPTH") {
            cfg.queue_depth = d;
        }
        cfg
    }
}

/// Why [`Service::submit`] refused a query.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// Admission control shed the submission: the service already had
    /// [`queue_depth`](ServiceConfig::queue_depth) queries in flight. The
    /// query was never planned or scheduled; retrying later is safe.
    Overloaded {
        /// Queries in flight when the submission was refused.
        in_flight: usize,
        /// The configured admission bound.
        queue_depth: usize,
    },
    /// Solving for the optimal cover failed before any task was
    /// scheduled.
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
    /// Submissions shed by admission control ([`SubmitError::Overloaded`]).
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
/// [`Service`] — the registry aggregates across services the way a
/// scrape endpoint would.
struct ServiceMetrics {
    submitted: Arc<Counter>,
    completed: Arc<Counter>,
    shed: Arc<Counter>,
    cancelled: Arc<Counter>,
    skipped_tasks: Arc<Counter>,
    in_flight: Arc<Gauge>,
    queued_tasks: Arc<Gauge>,
    query_latency_us: Arc<Histogram>,
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

/// Process-unique query ids, shared across services so the profiles of
/// concurrent services never collide; a per-request id can hang off them.
/// Starts at 1 — 0 never names a query.
static QUERY_IDS: AtomicU64 = AtomicU64::new(1);

fn next_query_id() -> u64 {
    QUERY_IDS.fetch_add(1, Ordering::Relaxed)
}

/// The execution profile of one submitted query
/// ([`QueryHandle::profile`] / [`QueryHandle::wait_profiled`]). All
/// timestamps are durations **since submit entry**, taken at task
/// granularity; phases that have not happened (yet) are `None`.
#[derive(Debug, Clone, Default)]
pub struct QueryProfile {
    /// Process-unique id, shared across services (0 never names a
    /// query).
    pub query_id: u64,
    /// Submit → admission slot acquired. Admission never waits, so this
    /// is the scheduler lock's acquisition time.
    pub admitted: Duration,
    /// Submit → shard plan computed. `None` for empty-input degenerates
    /// (planning never ran).
    pub planned: Option<Duration>,
    /// Submit → the first worker picked up a task. `None` until then and
    /// for degenerate queries (no task ever dispatched).
    pub first_dispatch: Option<Duration>,
    /// Submit → the last task drained. `None` while no task has.
    pub last_finish: Option<Duration>,
    /// Submit → the handle took and assembled its last slot. `None`
    /// until then; degenerate queries reassemble at submit time.
    pub reassembled: Option<Duration>,
    /// Tasks the shard plan scheduled (0 for degenerate queries).
    pub total_shards: usize,
    /// Per-shard breakdowns, in slot (= root-value) order; one entry per
    /// *drained* task, so `shards.len() < total_shards` while running.
    pub shards: Vec<ShardProfile>,
}

impl QueryProfile {
    /// `true` iff every scheduled shard has drained and reported.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.shards.len() == self.total_shards
    }

    /// Total rows across the per-shard breakdowns. Shards partition the
    /// root domain, so for a finished query this equals the
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
    /// Ring push → worker pop.
    pub queue_wait: Duration,
    /// Engine run time.
    pub run: Duration,
    /// Rows this shard produced.
    pub rows: u64,
    /// The shard's engine stats; [`JoinStats::absorb`]ing them in slot
    /// order over a zeroed base reproduces the final output's stats.
    pub stats: JoinStats,
}

/// A schedulable unit: one shard of one query.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Runs one task on a pool worker or a worker-less service's caller. A
/// panicking task must not unwind past its runner: a query shard has
/// already reported the failure to its job, and the service keeps serving
/// the other queries.
fn run_task(task: Task) {
    let _ = catch_unwind(AssertUnwindSafe(task));
}

/// The queued tasks of one admitted query. Rings are drained round-robin,
/// one task per turn, so concurrent queries share the pool fairly instead
/// of queueing behind whoever submitted first.
type QueryRing = VecDeque<Task>;

/// Everything guarded by the injector mutex: the rings, the admission
/// accounting, **and** the lifetime counters.
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
    shutdown: AtomicBool,
    /// Global-registry handles. Mirrors of the mutex-guarded counters are
    /// bumped *after* the critical sections — the registry is a reporting
    /// surface, the locked counters stay the source of truth.
    metrics: &'static ServiceMetrics,
}

impl Injector {
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues one admitted query's tasks as a fresh ring at the back of
    /// the rotation, counting the acceptance in the same critical section
    /// that makes the work visible to workers.
    fn push_ring(&self, tasks: QueryRing) {
        debug_assert!(!tasks.is_empty(), "rings hold at least one task");
        let n = tasks.len();
        {
            let mut q = self.lock();
            q.queued_tasks += n;
            q.submitted += 1;
            q.rings.push_back(tasks);
        }
        self.metrics.submitted.inc();
        self.metrics.queued_tasks.add(n as i64);
        if n == 1 {
            self.task_ready.notify_one();
        } else {
            self.task_ready.notify_all();
        }
    }

    /// Counts one admitted query accepted whose tasks never reach the
    /// rings: it resolved at submit time, or a worker-less service's
    /// caller runs its task. Like [`Injector::push_ring`], it counts the
    /// acceptance before the query can finish.
    fn accept(&self) {
        self.lock().submitted += 1;
        self.metrics.submitted.inc();
    }

    /// Worker side: next task — **round-robin across query rings**, one
    /// task per turn — or `None` once shut down *and* drained (pending
    /// queries always finish, so handles never dangle).
    fn pop(&self) -> Option<Task> {
        let mut q = self.lock();
        loop {
            if let Some(mut ring) = q.rings.pop_front() {
                let task = ring.pop_front().expect("rings hold ≥ 1 task");
                q.queued_tasks -= 1;
                if !ring.is_empty() {
                    // Rotate: this query goes to the back so its
                    // neighbours get the next turns.
                    q.rings.push_back(ring);
                }
                drop(q);
                self.metrics.queued_tasks.sub(1);
                return Some(task);
            }
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            q = self
                .task_ready
                .wait(q)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Releases one admission slot (a query errored at planning time —
    /// finished queries go through [`Injector::finish_query`], which also
    /// counts them).
    fn release_slot(&self) {
        {
            let mut q = self.lock();
            debug_assert!(q.in_flight > 0, "release without admission");
            q.in_flight -= 1;
        }
        self.metrics.in_flight.sub(1);
    }

    /// A query's last task drained (or it resolved at submit time):
    /// release its slot and count it done — **one** critical section, so
    /// no counters snapshot can see the query both completed and in
    /// flight — and record its latency since submit entry `base`.
    fn finish_query(&self, base: Instant) {
        {
            let mut q = self.lock();
            debug_assert!(q.in_flight > 0, "finish without admission");
            q.completed += 1;
            q.in_flight -= 1;
        }
        self.metrics.completed.inc();
        self.metrics.in_flight.sub(1);
        let latency = u64::try_from(base.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.metrics.query_latency_us.observe(latency);
    }

    /// A worker popped a task of a cancelled query and skipped the engine
    /// run. Settled **before** [`JobState::complete`] frees the slot, so
    /// by the time the counters report the query gone, its skips are
    /// already in.
    fn note_skipped(&self) {
        self.lock().skipped_tasks += 1;
        self.metrics.skipped_tasks.inc();
    }

    /// A pending handle was dropped: its query is cancelled.
    fn note_cancelled(&self) {
        self.lock().cancelled += 1;
        self.metrics.cancelled.inc();
    }
}

/// Per-query state shared between the submitting thread, the pool
/// workers and the [`QueryHandle`]. Phase marks are nanosecond offsets
/// from `base` (submit entry) in atomics, so a worker takes no lock for
/// one; everything a shard hands over goes under the one `slots` mutex.
struct JobState {
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
    /// Last slot taken and assembled; `0` = not yet.
    reassembled_ns: AtomicU64,
    /// Width of a raw row: the total order's length.
    width: usize,
    /// Shards not yet drained.
    remaining: AtomicUsize,
    /// The handle was dropped with slots it never took: workers skip the
    /// engine run for this query's remaining tasks.
    cancelled: AtomicBool,
    slots: Mutex<Slots>,
    /// Signalled under `slots` whenever a shard drains.
    changed: Condvar,
}

/// What the workers hand over to the handle, guarded by
/// [`JobState::slots`]. Workers fill the entries in whatever order the
/// pool interleaves them; the handle takes them in index (= root-value)
/// order, which is what makes the output deterministic.
struct Slots {
    /// Each shard's raw rows over the total order, from the moment it
    /// drains until the handle takes them.
    rows: Vec<Option<RowBuf>>,
    /// Each drained shard's profile.
    profiles: Vec<Option<ShardProfile>>,
    /// A shard's engine run panicked: the query has no output.
    poisoned: bool,
}

impl JobState {
    fn lock(&self) -> MutexGuard<'_, Slots> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Nanoseconds since submit entry (saturating far beyond any
    /// realistic run).
    fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records one drained shard — its rows and profile, or `None` when
    /// its engine run panicked — and, for the query's last, counts the
    /// query finished with the service.
    fn complete(&self, index: usize, shard: Option<(RowBuf, ShardProfile)>, injector: &Injector) {
        // The shard is counted down, the query settled with the service
        // and the condvar notified in the same critical section that
        // publishes it: whoever observes the final slot — or
        // `remaining == 0` — finds the admission slot already free.
        let mut slots = self.lock();
        match shard {
            Some((rows, profile)) => {
                slots.rows[index] = Some(rows);
                slots.profiles[index] = Some(profile);
            }
            None => slots.poisoned = true,
        }
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            injector.finish_query(self.base);
        }
        self.changed.notify_all();
    }

    /// Blocks until every shard has drained (and so the query's
    /// admission slot is free).
    fn wait_settled(&self) {
        let mut slots = self.lock();
        while self.remaining.load(Ordering::Acquire) > 0 {
            slots = self
                .changed
                .wait(slots)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Blocks until slot `index` has drained and takes its raw rows.
    ///
    /// # Errors
    /// [`QueryError::ShardPanicked`] once any shard of the query has
    /// panicked.
    fn take_slot(&self, index: usize) -> Result<RowBuf, QueryError> {
        let mut slots = self.lock();
        loop {
            if slots.poisoned {
                return Err(QueryError::ShardPanicked);
            }
            if let Some(rows) = slots.rows[index].take() {
                return Ok(rows);
            }
            slots = self
                .changed
                .wait(slots)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn snapshot(&self) -> QueryProfile {
        let first = self.first_dispatch_ns.load(Ordering::Acquire);
        let last = self.last_finish_ns.load(Ordering::Acquire);
        let reassembled = self.reassembled_ns.load(Ordering::Acquire);
        let (shards, total_shards) = {
            let slots = self.lock();
            let shards: Vec<ShardProfile> = slots.profiles.iter().flatten().cloned().collect();
            (shards, slots.profiles.len())
        };
        QueryProfile {
            query_id: self.query_id,
            admitted: Duration::from_nanos(self.admitted_ns),
            planned: Some(Duration::from_nanos(self.planned_ns)),
            first_dispatch: (first != u64::MAX).then(|| Duration::from_nanos(first)),
            last_finish: (last > 0).then(|| Duration::from_nanos(last)),
            reassembled: (reassembled > 0).then(|| Duration::from_nanos(reassembled)),
            total_shards,
            shards,
        }
    }
}

/// Moves the raw rows of consecutive slots, handed over as they are in
/// slot order as each settles, into one [`Relation`] sorted in
/// output-schema order ([`PreparedQuery::assemble_slots`]).
type SlotAssemble =
    Box<dyn Fn(&mut dyn Iterator<Item = RowBuf>) -> Result<Relation, QueryError> + Send>;

/// A submitted query: the one way its rows leave the service. Each shard
/// fills one **slot**; the handle takes the slots in slot order, either
/// one batch per slot as each settles ([`next_batch`](QueryHandle::next_batch),
/// the streaming hook the HTTP front end's chunked `/query/{id}/rows`
/// rides on) or every remaining slot at once
/// ([`next_merged`](QueryHandle::next_merged),
/// [`wait`](QueryHandle::wait)).
///
/// Every batch is one call of [`PreparedQuery::assemble_slots`] on the
/// slots it takes. Slot rectangles partition the output (disjoint
/// `(root, anchor)` ranges), so concatenating every batch and running one
/// final `sort_dedup` always reproduces [`wait`](QueryHandle::wait)'s
/// relation. When [`ordered`](QueryHandle::ordered) is `true` even that
/// sort is unnecessary: plain concatenation in batch order is already the
/// full output, byte for byte.
///
/// **Dropping** the handle before it took every slot *cancels* the query:
/// workers skip the engine run for its remaining tasks, so an abandoned
/// handle — or a client that disconnects mid-stream — stops burning the
/// shared pool and frees its admission slot as its ring drains.
pub struct QueryHandle {
    inner: HandleInner,
    /// Stats before any shard is absorbed: label, bound, cover.
    stats: JoinStats,
    /// The first slot not yet taken.
    next_slot: usize,
    total_slots: usize,
    /// Concatenating per-slot batches in slot order reproduces the full
    /// output byte-for-byte (see [`PreparedQuery::slots_stream_sorted`]).
    ordered: bool,
}

enum HandleInner {
    /// Resolved before the handle exists (empty input, zero-shard plan, a
    /// [`QueryHandle::ready`] relation): the whole output, yielded as one
    /// batch. The profile is boxed so the handle stays small.
    Ready {
        relation: Relation,
        profile: Box<QueryProfile>,
    },
    /// Takes the slots the pool fills.
    Pool {
        state: Arc<JobState>,
        injector: Arc<Injector>,
        assemble: SlotAssemble,
    },
}

/// One taken slot range's output, yielded by
/// [`QueryHandle::next_batch`] and [`QueryHandle::next_merged`].
#[derive(Debug)]
pub struct RowBatch {
    /// The first slot (= shard = root rectangle) the batch holds. Batches
    /// arrive in strictly ascending slot order.
    pub slot: usize,
    /// The batch's rows in output-schema order, sorted within the batch.
    pub relation: Relation,
}

impl QueryHandle {
    /// A handle on a relation computed outside any service — a Datalog
    /// program's materialized result — yielding it as one buffered batch:
    /// not [`ordered`](QueryHandle::ordered), default stats, and a profile
    /// with no shard under query id 0.
    #[must_use]
    pub fn ready(relation: Relation) -> QueryHandle {
        let profile = QueryProfile::default();
        QueryHandle::resolved(relation, profile, JoinStats::default(), false)
    }

    /// A finished handle yielding `relation` as its one batch.
    fn resolved(
        relation: Relation,
        profile: QueryProfile,
        stats: JoinStats,
        ordered: bool,
    ) -> QueryHandle {
        QueryHandle {
            inner: HandleInner::Ready {
                relation,
                profile: Box::new(profile),
            },
            stats,
            next_slot: 0,
            total_slots: 1,
            ordered,
        }
    }

    /// Takes slots `next_slot..end`, blocking until each settles, and
    /// assembles their raw rows, handed over as they are in slot order,
    /// into one relation. Taking the last slot marks the profile
    /// reassembled.
    fn take(&mut self, end: usize) -> Result<Relation, QueryError> {
        let from = self.next_slot;
        let relation = match &mut self.inner {
            HandleInner::Ready { relation, .. } => {
                let schema = relation.schema().clone();
                std::mem::replace(relation, Relation::empty(schema))
            }
            HandleInner::Pool {
                state, assemble, ..
            } => {
                // Each slot goes to the assembly as it settles, so rows
                // already in schema order are copied while later shards
                // still run. A failed slot ends the slots early; its
                // error wins over the partial relation.
                let mut failed = None;
                let assembled =
                    assemble(&mut (from..end).map_while(|slot| {
                        state.take_slot(slot).map_err(|e| failed = Some(e)).ok()
                    }));
                if let Some(e) = failed {
                    return Err(e);
                }
                let relation = assembled?;
                if end == self.total_slots {
                    state
                        .reassembled_ns
                        .store(state.elapsed_ns().max(1), Ordering::Release);
                }
                relation
            }
        };
        self.next_slot = end;
        Ok(relation)
    }

    fn batch_until(&mut self, end: usize) -> Option<Result<RowBatch, QueryError>> {
        let slot = self.next_slot;
        (slot < self.total_slots)
            .then(|| self.take(end).map(|relation| RowBatch { slot, relation }))
    }

    /// Blocks until the next slot settles and yields its rows as a
    /// standalone batch in output-schema order; `None` once every slot
    /// has been taken. A front end can push early shards to the client while
    /// the pool is still running later ones.
    ///
    /// # Errors
    /// [`QueryError::ShardPanicked`] if a shard's engine run panicked.
    pub fn next_batch(&mut self) -> Option<Result<RowBatch, QueryError>> {
        self.batch_until(self.next_slot + 1)
    }

    /// Blocks until **every** remaining slot has settled and yields them
    /// as one batch: one assembly over the slots' raw rows in slot order,
    /// which re-keys them into output-schema order with one write per
    /// value. A consumer of a handle that is not
    /// [`ordered`](QueryHandle::ordered) has to merge the batches anyway;
    /// this skips the merge. `None` once every slot has been taken.
    ///
    /// # Errors
    /// Same as [`next_batch`](QueryHandle::next_batch).
    pub fn next_merged(&mut self) -> Option<Result<RowBatch, QueryError>> {
        self.batch_until(self.total_slots)
    }

    /// Blocks until the query finishes and returns the rows of every slot
    /// not yet taken — the whole output for a fresh handle — with the
    /// shards' [`JoinStats`] absorbed in slot order. By the time it
    /// returns, the query's admission slot is free.
    ///
    /// # Errors
    /// Same as [`next_batch`](QueryHandle::next_batch).
    pub fn wait(self) -> Result<JoinOutput, QueryError> {
        self.wait_profiled().map(|(out, _)| out)
    }

    /// Like [`wait`](QueryHandle::wait), but also returns the query's
    /// final [`QueryProfile`] — every lifecycle phase set, every shard
    /// reported.
    ///
    /// # Errors
    /// Same as [`next_batch`](QueryHandle::next_batch).
    pub fn wait_profiled(mut self) -> Result<(JoinOutput, QueryProfile), QueryError> {
        // Every slot taken means every shard drained, and the last one to
        // drain freed the admission slot before it published its rows.
        let relation = self.take(self.total_slots)?;
        let profile = self.profile();
        let mut stats = std::mem::take(&mut self.stats);
        for shard in &profile.shards {
            stats.absorb(&shard.stats);
        }
        Ok((JoinOutput { relation, stats }, profile))
    }

    /// A point-in-time [`QueryProfile`] snapshot — non-blocking, callable
    /// while the query is still running (phases that have not happened
    /// are `None`, `shards` holds only drained tasks).
    #[must_use]
    pub fn profile(&self) -> QueryProfile {
        match &self.inner {
            HandleInner::Ready { profile, .. } => (**profile).clone(),
            HandleInner::Pool { state, .. } => state.snapshot(),
        }
    }

    /// `true` iff every shard of the query has already drained — taking
    /// the remaining slots will not block. Degenerate submit-time
    /// resolutions, [`ready`](QueryHandle::ready) handles and every
    /// handle of a worker-less service are always finished.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        match &self.inner {
            HandleInner::Ready { .. } => true,
            HandleInner::Pool { state, .. } => state.remaining.load(Ordering::Acquire) == 0,
        }
    }

    /// Blocks until every shard has drained and the service has released
    /// the query's admission slot, without taking any slot.
    pub fn wait_settled(&self) {
        if let HandleInner::Pool { state, .. } = &self.inner {
            state.wait_settled();
        }
    }

    /// `true` iff concatenating the per-slot batches in order reproduces
    /// the full output byte-for-byte: the prepared total order starts
    /// with the output schema's first `min(2, n)` attributes, the ones
    /// the slots cut, so slots follow each other in schema order and each
    /// batch is sorted within its slot (the triangle adopts its rows, the
    /// 4-cycle re-keys each (a, b) run). When `false` (the star and the
    /// 2-star, and a [`ready`](QueryHandle::ready) handle's one buffered
    /// batch) the consumer must merge:
    /// take the remaining slots at once with
    /// [`next_merged`](QueryHandle::next_merged), or concatenate all
    /// batches and sort + dedup once.
    #[must_use]
    pub fn ordered(&self) -> bool {
        self.ordered
    }

    /// Number of slots the handle yields in total (1 for a ready handle
    /// and on a worker-less service).
    #[must_use]
    pub fn total_slots(&self) -> usize {
        self.total_slots
    }

    /// Slots already taken.
    #[must_use]
    pub fn slots_emitted(&self) -> usize {
        self.next_slot
    }
}

impl fmt::Debug for QueryHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "QueryHandle({}/{} slots taken, finished: {}, ordered: {})",
            self.next_slot,
            self.total_slots,
            self.is_finished(),
            self.ordered
        )
    }
}

impl Drop for QueryHandle {
    /// Abandoning a handle with slots it never took cancels its query:
    /// remaining tasks are skipped by the workers instead of burning the
    /// pool for rows nobody can read any more.
    fn drop(&mut self) {
        if let HandleInner::Pool {
            state, injector, ..
        } = &self.inner
        {
            if self.next_slot < self.total_slots {
                state.cancelled.store(true, Ordering::Release);
                if state.remaining.load(Ordering::Acquire) > 0 {
                    injector.note_cancelled();
                }
            }
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
    /// Spawns the worker pool — none for `workers: 0`, whose queries run
    /// on the submitting thread.
    #[must_use]
    pub fn new(cfg: ServiceConfig) -> Service {
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
            shutdown: AtomicBool::new(false),
            metrics: ServiceMetrics::get(),
        });
        let workers = (0..cfg.workers)
            .map(|i| {
                let injector = Arc::clone(&injector);
                std::thread::Builder::new()
                    .name(format!("wcoj-service-{i}"))
                    .spawn(move || {
                        while let Some(task) = injector.pop() {
                            run_task(task);
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

    /// Number of pool workers (`0`: queries run on the submitting thread).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.len()
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

    /// The shard layout [`submit`](Service::submit) schedules for
    /// `prepared` on this service: [`wcoj_exec::plan_shards`] sized for
    /// `workers × OVERSPLIT` shards — the planned ranges, a single
    /// unrestricted task for degenerate plans, and empty exactly when the
    /// query is a zero-shard plan (deterministic, so differential tests
    /// can re-run the layout shard by shard). A worker-less service
    /// plans nothing: its layout is always `[None]`.
    #[must_use]
    pub fn shard_layout<S: SearchTree>(
        &self,
        prepared: &PreparedQuery<S>,
        cfg: &ExecConfig,
    ) -> Vec<Option<RootShard>> {
        if self.workers.is_empty() {
            return vec![None];
        }
        plan_shards(prepared, self.workers.len() * OVERSPLIT, cfg)
    }

    /// Acquires an admission slot, or sheds the submission when
    /// [`ServiceConfig::queue_depth`] queries are already in flight.
    fn admit(&self) -> Result<(), SubmitError> {
        let depth = self.cfg.queue_depth;
        let mut q = self.injector.lock();
        if depth == 0 || q.in_flight < depth {
            q.in_flight += 1;
            drop(q);
            self.injector.metrics.in_flight.add(1);
            return Ok(());
        }
        let in_flight = q.in_flight;
        q.shed += 1;
        drop(q);
        self.injector.metrics.shed.inc();
        Err(SubmitError::Overloaded {
            in_flight,
            queue_depth: depth,
        })
    }

    /// Submits a prepared query — the one way a query reaches the pool.
    /// Returns immediately; the shards run on the shared pool under the
    /// query's LP-optimal fractional cover (memoized on the preparation).
    /// A worker-less service runs the query's one task before it returns.
    /// Under overload ([`ServiceConfig::queue_depth`] queries already in
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
        let submit_start = Instant::now();
        // Admission first: under overload the submission is refused
        // *before* any planning work (shedding is supposed to be cheap).
        self.admit()?;
        let admitted_ns = u64::try_from(submit_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let query_id = next_query_id();

        let base_stats = |log2_bound: f64, x: &[f64]| JoinStats {
            algorithm_used: ALGORITHM,
            log2_agm_bound: log2_bound,
            cover: x.to_vec(),
            ..JoinStats::default()
        };
        // Degenerate queries resolve immediately with an empty output — no
        // tasks, no workers: counted submitted, then completed, which
        // releases the admission slot.
        let resolve = |planned_ns: Option<u64>, stats| {
            self.injector.accept();
            self.injector.finish_query(submit_start);
            let profile = QueryProfile {
                query_id,
                admitted: Duration::from_nanos(admitted_ns),
                planned: planned_ns.map(Duration::from_nanos),
                reassembled: Some(submit_start.elapsed()),
                ..QueryProfile::default()
            };
            let empty = Relation::empty(prepared.query().output_schema());
            QueryHandle::resolved(empty, profile, stats, true)
        };
        // An empty input has no shard plan: `planned` stays unset.
        if prepared.input_is_empty() {
            return Ok(resolve(None, base_stats(0.0, &[])));
        }
        let (x, log2_bound) = match prepared.resolve_cover(None) {
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
            return Ok(resolve(Some(planned_ns), base_stats(log2_bound, &x)));
        }

        let total_slots = tasks.len();
        let state = Arc::new(JobState {
            query_id,
            base: submit_start,
            admitted_ns,
            planned_ns,
            first_dispatch_ns: AtomicU64::new(u64::MAX),
            last_finish_ns: AtomicU64::new(0),
            reassembled_ns: AtomicU64::new(0),
            width: prepared.total_order().len(),
            remaining: AtomicUsize::new(total_slots),
            cancelled: AtomicBool::new(false),
            slots: Mutex::new(Slots {
                rows: vec![None; total_slots],
                profiles: vec![None; total_slots],
                poisoned: false,
            }),
            changed: Condvar::new(),
        });
        let mut ring: QueryRing = VecDeque::with_capacity(total_slots);
        for (i, shard) in tasks.into_iter().enumerate() {
            let prepared = Arc::clone(prepared);
            let state = Arc::clone(&state);
            let injector = Arc::clone(&self.injector);
            let x = x.clone();
            // Offset of the ring push, so the worker can compute its
            // queue wait with one subtraction.
            let enqueued_ns = state.elapsed_ns();
            ring.push_back(Box::new(move || {
                let started_ns = state.elapsed_ns();
                state
                    .first_dispatch_ns
                    .fetch_min(started_ns, Ordering::AcqRel);
                let ran = if state.cancelled.load(Ordering::Acquire) {
                    // The handle is gone: nobody can read the rows, skip
                    // the engine run and just drain the accounting.
                    injector.note_skipped();
                    Some((RowBuf::new(state.width), JoinStats::default()))
                } else {
                    // A panic poisons the job: the handle's next take
                    // reports it instead of blocking forever.
                    catch_unwind(AssertUnwindSafe(|| {
                        prepared.run_shard(&x, log2_bound, shard)
                    }))
                    .ok()
                };
                let drained = ran.map(|(rows, stats)| {
                    let finished_ns = state.elapsed_ns();
                    let queue_wait = started_ns.saturating_sub(enqueued_ns);
                    let run = finished_ns.saturating_sub(started_ns);
                    state
                        .last_finish_ns
                        .fetch_max(finished_ns, Ordering::AcqRel);
                    let m = injector.metrics;
                    m.task_queue_wait_us.observe(queue_wait / 1_000);
                    m.task_run_us.observe(run / 1_000);
                    m.shard_rows.observe(rows.len() as u64);
                    let profile = ShardProfile {
                        slot: i,
                        queue_wait: Duration::from_nanos(queue_wait),
                        run: Duration::from_nanos(run),
                        rows: rows.len() as u64,
                        stats,
                    };
                    (rows, profile)
                });
                state.complete(i, drained, &injector);
            }));
        }
        if self.workers.is_empty() {
            // No pool: count the acceptance, then run the one task here
            // with no lock held, as a worker would.
            self.injector.accept();
            ring.into_iter().for_each(run_task);
        } else {
            // The acceptance is counted inside push_ring, under the same
            // lock that makes the ring visible to workers: a fast pool can
            // finish every shard only *after* `submitted` already reads
            // right.
            self.injector.push_ring(ring);
        }

        let assembler = Arc::clone(prepared);
        Ok(QueryHandle {
            inner: HandleInner::Pool {
                state,
                injector: Arc::clone(&self.injector),
                assemble: Box::new(move |slots| assembler.assemble_slots(slots)),
            },
            stats: base_stats(log2_bound, &x),
            next_slot: 0,
            total_slots,
            ordered: prepared.slots_stream_sorted(),
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
    use wcoj_core::{join, JoinQuery};
    use wcoj_storage::{Attr, DeltaRelation, FlatIndex, Schema, StorageError, Value};

    fn rel(schema: &[u32], rows: &[&[u32]]) -> Relation {
        Relation::from_u32_rows(Schema::of(schema), rows)
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
    /// submitting it costs microseconds — its cover is solved here and
    /// memoized on the preparation — so a blocker is reliably still in
    /// flight when the next submission's admission check runs.
    fn heavy_blocker(seed: u64) -> (Vec<Relation>, Arc<PreparedQuery>) {
        let rels = wcoj_datagen::cycle_instance(seed, 5, 400, 20);
        let prepared = Arc::new(PreparedQuery::new(&rels).unwrap());
        prepared.resolve_cover(None).unwrap();
        (rels, prepared)
    }

    #[test]
    fn submit_and_wait_matches_sequential() {
        let service = Service::new(ServiceConfig::with_workers(3));
        let rels = [
            wcoj_datagen::random_relation(1, &[0, 1], 120, 12),
            wcoj_datagen::random_relation(2, &[1, 2], 120, 12),
            wcoj_datagen::random_relation(3, &[0, 2], 120, 12),
        ];
        let seq = join(&rels).unwrap();
        let prepared = Arc::new(PreparedQuery::new(&rels).unwrap());
        let cfg = ExecConfig {
            shard_min_size: 1,
            ..service.exec_config()
        };
        let out = service.submit(&prepared, &cfg).unwrap().wait().unwrap();
        assert_eq!(out.relation, seq);
        assert_eq!(out.stats.algorithm_used, "nprr-service");
        assert!(out.stats.shards >= 1);
        assert_eq!(service.counters().submitted, 1);
    }

    #[test]
    fn many_handles_in_flight_before_any_wait() {
        let service = Service::new(ServiceConfig::with_workers(2));
        let rels = triangle();
        let seq = join(&rels).unwrap();
        let prepared = Arc::new(PreparedQuery::new(&rels).unwrap());
        let cfg = ExecConfig {
            shard_min_size: 1,
            ..service.exec_config()
        };
        let handles: Vec<QueryHandle> = (0..16)
            .map(|_| service.submit(&prepared, &cfg).unwrap())
            .collect();
        for handle in handles {
            assert_eq!(handle.wait().unwrap().relation, seq);
        }
        assert_eq!(service.counters().submitted, 16);
        let counters = service.counters();
        assert_eq!(counters.completed, 16);
        assert_eq!(counters.in_flight, 0);
        assert_eq!(counters.queued_tasks, 0);
        assert_eq!(counters.shed, 0);
        assert_eq!(counters.cancelled, 0);
    }

    /// A second backend, the shared `Arc<FlatIndex>` the server's plans
    /// hold, runs through the pool like an owned flat trie.
    #[test]
    fn shared_index_runs_through_the_pool() {
        let service = Service::new(ServiceConfig::with_workers(4));
        let rels = triangle();
        let seq = join(&rels).unwrap();
        let prepared = Arc::new(PreparedQuery::<Arc<FlatIndex>>::new_indexed(&rels).unwrap());
        let cfg = ExecConfig {
            shard_min_size: 1,
            ..service.exec_config()
        };
        let out = service.submit(&prepared, &cfg).unwrap().wait().unwrap();
        assert_eq!(out.relation, seq);
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

    /// `submitted` counts every *accepted* submit — including degenerate
    /// queries resolved at submit time. Accepted queries all eventually
    /// count as `completed`, and admission slots drain back to zero.
    /// (Shed submissions are not counted:
    /// `burst_past_queue_depth_sheds_deterministically`.)
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
        assert_eq!(service.counters().submitted, 1);

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
        assert_eq!(service.counters().submitted, 2);

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
        // burst submission below costs microseconds (memoized cover,
        // and the admission check precedes all planning), so none of the
        // admitted queries can finish before the burst loop ends.
        let (heavy_rels, heavy) = heavy_blocker(11);
        let seq = join(&heavy_rels).unwrap();
        let cfg = ExecConfig {
            shard_min_size: 1,
            ..service.exec_config()
        };

        let accepted: Vec<QueryHandle> = (0..Q)
            .map(|i| {
                service
                    .submit(&heavy, &cfg)
                    .unwrap_or_else(|e| panic!("submission {i} within the bound accepted: {e}"))
            })
            .collect();
        // The (Q+1)-th burst submission is shed.
        match service.submit(&heavy, &cfg) {
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
            service.counters().submitted,
            Q as u64,
            "shed submissions don't count"
        );

        // Every accepted handle resolves bit-identically to join_nprr.
        for handle in accepted {
            let out = handle.wait().unwrap();
            assert_eq!(out.relation, seq);
        }
        // With the queue drained, submissions are admitted again.
        let out = service.submit(&heavy, &cfg).unwrap().wait().unwrap();
        assert_eq!(out.relation, seq);
        assert_eq!(service.counters().in_flight, 0);
    }

    #[test]
    fn dropped_handle_cancels_remaining_tasks() {
        // One worker: after the handle is dropped mid-run, the remaining
        // ring entries are popped but skipped instead of burning the pool.
        let service = Service::new(ServiceConfig::with_workers(1));
        let (_, heavy) = heavy_blocker(17);
        let cfg = ExecConfig {
            shard_min_size: 1,
            ..service.exec_config()
        };
        let layout = service.shard_layout(&*heavy, &cfg);
        assert!(layout.len() >= 3, "the plan is multi-task: {layout:?}");

        let handle = service.submit(&heavy, &cfg).unwrap();
        drop(handle); // cancel
        assert_eq!(service.counters().cancelled, 1);

        // The pool still serves other queries correctly afterwards…
        let rels = triangle();
        let seq = join(&rels).unwrap();
        let small = Arc::new(PreparedQuery::new(&rels).unwrap());
        let out = service.submit(&small, &cfg).unwrap().wait().unwrap();
        assert_eq!(out.relation, seq);

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
        let seq = join(&rels).unwrap();
        let prepared = Arc::new(PreparedQuery::new(&rels).unwrap());
        let cfg = ExecConfig {
            shard_min_size: 1,
            ..service.exec_config()
        };
        let layout = service.shard_layout(&*prepared, &cfg);
        assert!(layout.len() >= 2, "multi-shard plan: {}", layout.len());

        let handle = service.submit(&prepared, &cfg).unwrap();
        let (out, profile) = handle.wait_profiled().unwrap();
        assert_eq!(out.relation, seq, "profiling changes no output");

        assert!(profile.query_id > 0);
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

        // Per-shard breakdown: slot order, rows sum to the output (shards
        // partition the root domain), stats reassemble.
        let mut stats = JoinStats::default();
        for (slot, shard) in profile.shards.iter().enumerate() {
            assert_eq!(shard.slot, slot, "slot order");
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

        // Cancelled: the dropped handle's remaining shards are skipped.
        let (_, heavy) = heavy_blocker(29);
        let handle = service.submit(&heavy, &cfg).unwrap();
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
        let seq = join(&triangle()).unwrap();
        let handle;
        {
            let service = Service::new(ServiceConfig::with_workers(2));
            let prepared = Arc::new(PreparedQuery::new(&triangle()).unwrap());
            let out = service
                .submit(&prepared, &service.exec_config())
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(out.relation, seq);
            // a handle may outlive the service: drop drains the queue
            let cfg = ExecConfig {
                shard_min_size: 1,
                ..ExecConfig::default()
            };
            handle = service.submit(&prepared, &cfg).unwrap();
        } // service dropped here
        assert_eq!(handle.wait().unwrap().relation, seq);
    }

    /// The root value a pool worker may not descend into.
    const POISON: Value = Value(7);

    /// A [`FlatIndex`] that panics when a pool worker reaches the child
    /// [`POISON`], by `descend` or by a child scan: the engine dies inside
    /// one root range, while planning on the submitting thread walks the
    /// same index unharmed.
    struct PanicAt(FlatIndex);

    /// Panics on a pool worker (or a caller named like one) that reaches
    /// the child labelled `v`.
    fn poison_check(v: Value) {
        let worker = std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("wcoj-service-"));
        assert!(!(worker && v == POISON), "injected engine fault");
    }

    impl SearchTree for PanicAt {
        type Node = <FlatIndex as SearchTree>::Node;
        /// The flat scan, and the label its last seek found.
        type Children<'a> = (<FlatIndex as SearchTree>::Children<'a>, Value);

        fn build(rel: &Relation, order: &[Attr]) -> Result<Self, StorageError> {
            FlatIndex::build(rel, order).map(PanicAt)
        }

        fn root(&self) -> Self::Node {
            self.0.root()
        }

        fn descend(&self, node: Self::Node, v: Value) -> Option<Self::Node> {
            poison_check(v);
            self.0.descend(node, v)
        }

        fn distinct_count(&self, node: Self::Node, extra: usize) -> usize {
            self.0.distinct_count(node, extra)
        }

        fn for_each_extension(&self, node: Self::Node, extra: usize, f: impl FnMut(&[Value])) {
            self.0.for_each_extension(node, extra, f);
        }

        fn children(&self, node: Self::Node) -> Self::Children<'_> {
            (self.0.children(node), Value(0))
        }

        fn seek(&self, children: &mut Self::Children<'_>, v: Value) -> Option<Value> {
            children.1 = SearchTree::seek(&self.0, &mut children.0, v)?;
            Some(children.1)
        }

        fn child(&self, children: &Self::Children<'_>) -> Self::Node {
            poison_check(children.1);
            SearchTree::child(&self.0, &children.0)
        }

        fn labels<'a>(&self, children: &Self::Children<'a>) -> &'a [Value]
        where
            Self: 'a,
        {
            SearchTree::labels(&self.0, &children.0)
        }

        fn child_at(&self, children: &Self::Children<'_>, i: usize) -> Self::Node {
            poison_check(SearchTree::labels(&self.0, &children.0)[i]);
            SearchTree::child_at(&self.0, &children.0, i)
        }
    }

    #[test]
    fn a_panicking_shard_fails_its_query_and_the_pool_keeps_serving() {
        // x ∈ 0..12, y ∈ 100..108, z ∈ 200..208: POISON is only ever a
        // value of the root attribute x.
        let pairs =
            |xs: std::ops::Range<u64>, ys: std::ops::Range<u64>, keep: fn(u64, u64) -> bool| {
                xs.flat_map(|x| ys.clone().map(move |y| (x, y)))
                    .filter(|&(x, y)| keep(x, y))
                    .map(|(x, y)| vec![Value(x), Value(y)])
                    .collect::<Vec<_>>()
            };
        let rels = [
            Relation::from_rows(
                Schema::of(&[0, 1]),
                pairs(0..12, 100..108, |x, y| (x + y) % 2 == 0),
            ),
            Relation::from_rows(
                Schema::of(&[1, 2]),
                pairs(100..108, 200..208, |y, z| (y * z) % 3 != 0),
            ),
            Relation::from_rows(
                Schema::of(&[0, 2]),
                pairs(0..12, 200..208, |x, z| (x + z) % 3 != 1),
            ),
        ]
        .map(Result::unwrap);
        let service = Service::new(ServiceConfig::with_workers(2));
        let cfg = ExecConfig {
            shard_min_size: 1,
            ..service.exec_config()
        };
        // The triangle descends into POISON (a leaf probes T's section
        // under R's candidates); the path R(x,y) S(y,z) holds x in R alone,
        // so its workers reach POISON only through R's child scan.
        for rels in [&rels[..], &rels[..2]] {
            let seq = join(rels).unwrap();
            assert!(seq.iter_rows().any(|row| row[0] == POISON));
            let poisoned = Arc::new(PreparedQuery::<PanicAt>::new_indexed(rels).unwrap());
            assert_eq!(poisoned.evaluate(None).unwrap().relation, seq);
            assert!(service.shard_layout(&*poisoned, &cfg).len() >= 2);

            // wait() reports the panic as an error…
            let waited = service.submit(&poisoned, &cfg).unwrap().wait();
            assert_eq!(waited.unwrap_err(), QueryError::ShardPanicked);
            // …and so does the stream, on the batch the panic interrupts.
            let mut stream = service.submit(&poisoned, &cfg).unwrap();
            let failed = std::iter::from_fn(|| stream.next_batch()).find_map(Result::err);
            assert_eq!(failed, Some(QueryError::ShardPanicked));
        }

        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let c = service.counters();
            if c.in_flight == 0 && c.queued_tasks == 0 {
                assert_eq!((c.submitted, c.completed), (4, 4), "{c:?}");
                break;
            }
            assert!(Instant::now() < deadline, "poisoned queries never drained");
            std::thread::yield_now();
        }
        // The pool survived: the next query is bit-identical to
        // sequential.
        let healthy = Arc::new(PreparedQuery::new(&rels).unwrap());
        let out = service.submit(&healthy, &cfg).unwrap().wait().unwrap();
        assert_eq!(out.relation, join(&rels).unwrap());
        assert_eq!(service.workers(), 2);
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

        let mut stream = service.submit(&prepared, &cfg).unwrap();
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

        let mut stream = service.submit(&prepared, &cfg).unwrap();
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
        // The star R(0,1) S(0,2) T(0,3) binds its center last under every
        // edge order: its slots do not stream.
        let rels: Vec<Relation> = (1..=3u32)
            .map(|leaf| wcoj_datagen::random_relation(60 + u64::from(leaf), &[0, leaf], 80, 12))
            .collect();
        let prepared = Arc::new(PreparedQuery::new(&rels).unwrap());
        assert!(!prepared.slots_stream_sorted(), "the merge is needed");
        let cfg = ExecConfig {
            shard_min_size: 1,
            ..service.exec_config()
        };
        let expected = join(&rels).unwrap();

        // From the start: the whole output, bit-identical to sequential.
        let mut stream = service.submit(&prepared, &cfg).unwrap();
        assert!(stream.total_slots() >= 3);
        let all = stream.next_merged().unwrap().unwrap();
        assert_eq!((all.slot, &all.relation), (0, &expected));
        assert_eq!(stream.slots_emitted(), stream.total_slots());
        assert!(stream.next_merged().is_none() && stream.next_batch().is_none());

        // Mid-stream: the first slot on its own, the rest merged.
        let mut stream = service.submit(&prepared, &cfg).unwrap();
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

    /// `rels` served from live buffers: each relation's even rows and one
    /// outsider row in the base, every row inserted, the outsider deleted.
    fn live_delta(rels: &[Relation]) -> Arc<PreparedQuery<Arc<FlatIndex>>> {
        let deltas: Vec<DeltaRelation> = rels
            .iter()
            .map(|rel| {
                let rows: Vec<Vec<Value>> = rel.iter_rows().map(<[Value]>::to_vec).collect();
                let outsider = vec![Value(u64::MAX); rel.arity()];
                let base = rows.iter().step_by(2).cloned().chain([outsider.clone()]);
                let base = Relation::from_rows(rel.schema().clone(), base.collect()).unwrap();
                let mut d = DeltaRelation::new(base);
                d.insert_rows(&rows).unwrap();
                d.delete_rows(&[outsider]).unwrap();
                d
            })
            .collect();
        let stale: Vec<Relation> = deltas.iter().map(|d| (**d.base()).clone()).collect();
        let sizes = deltas.iter().map(DeltaRelation::len).collect();
        let q = Arc::new(JoinQuery::new(&stale).unwrap());
        let prepared =
            PreparedQuery::from_shared(q, Some(sizes), |i, order| deltas[i].index(order));
        Arc::new(prepared.unwrap())
    }

    /// What a batch was before the re-key: the slots' raw rows as one
    /// relation over the total order, reordered into the output schema,
    /// sorted and deduplicated.
    fn reorder_then_sort<S: SearchTree>(prepared: &PreparedQuery<S>, slots: &[RowBuf]) -> Relation {
        let q = prepared.query();
        let order = prepared.total_order().iter().map(|&v| q.attr_of_vertex(v));
        let data = slots.iter().flat_map(|s| s.clone().into_data()).collect();
        let mut rel = Relation::from_flat(Schema::new(order.collect()).unwrap(), data).unwrap();
        rel.reorder_columns(&q.output_schema()).unwrap();
        rel.sort_dedup();
        rel
    }

    /// `next_batch` per slot, `next_merged` after a mid-stream cut and
    /// `wait` each equal the old reorder → `sort_dedup` of the slots they
    /// take, and `wait` is the sequential output. When the handle is
    /// `ordered`, the `next_batch` batches concatenate to it.
    fn handle_batches_match_the_old_merge<S>(
        service: &Service,
        prepared: &Arc<PreparedQuery<S>>,
        expected: &Relation,
        ctx: &str,
    ) where
        S: SearchTree + Send + Sync + 'static,
    {
        let cfg = ExecConfig {
            shard_min_size: 1,
            ..service.exec_config()
        };
        let (x, bound) = prepared.resolve_cover(None).unwrap();
        let slots: Vec<RowBuf> = service
            .shard_layout(&**prepared, &cfg)
            .into_iter()
            .map(|task| prepared.run_shard(&x, bound, task).0)
            .collect();
        assert!(slots.len() >= 3, "{ctx}: {} slots", slots.len());

        let waited = service.submit(prepared, &cfg).unwrap().wait().unwrap();
        assert_eq!(
            waited.relation,
            reorder_then_sort(prepared, &slots),
            "{ctx}: wait"
        );
        assert_eq!(&waited.relation, expected, "{ctx}: wait is the output");

        let mut handle = service.submit(prepared, &cfg).unwrap();
        assert_eq!(handle.ordered(), prepared.slots_stream_sorted(), "{ctx}");
        let mut streamed = Relation::empty(expected.schema().clone());
        for (i, slot) in slots.iter().enumerate() {
            let batch = handle.next_batch().unwrap().unwrap();
            let want = reorder_then_sort(prepared, std::slice::from_ref(slot));
            assert_eq!(
                (batch.slot, &batch.relation),
                (i, &want),
                "{ctx}: next_batch"
            );
            batch
                .relation
                .iter_rows()
                .for_each(|row| streamed.push_row(row).unwrap());
        }
        assert!(handle.next_batch().is_none());
        if handle.ordered() {
            assert_eq!(&streamed, expected, "{ctx}: the batches are the output");
        }

        let cut = slots.len() / 2;
        let mut handle = service.submit(prepared, &cfg).unwrap();
        for _ in 0..cut {
            handle.next_batch().unwrap().unwrap();
        }
        let rest = handle.next_merged().unwrap().unwrap();
        let want = reorder_then_sort(prepared, &slots[cut..]);
        assert_eq!(
            (rest.slot, &rest.relation),
            (cut, &want),
            "{ctx}: next_merged"
        );
    }

    #[test]
    fn handle_batches_match_the_old_merge_on_flat_and_live_buffers() {
        let service = Service::new(ServiceConfig::with_workers(2));
        let star = |leaves: u32| -> Vec<Relation> {
            (1..=leaves)
                .map(|leaf| wcoj_datagen::random_relation(u64::from(leaf), &[0, leaf], 80, 12))
                .collect()
        };
        // The 4-cycle streams, re-keying within each (a, b) run; the star
        // and the 2-star bind their center last and merge.
        for (name, rels, ordered) in [
            (
                "4-cycle",
                wcoj_datagen::cycle_instance(61, 4, 150, 14),
                true,
            ),
            ("2-star", star(2), false),
            ("star", star(3), false),
        ] {
            let expected = join(&rels).unwrap();
            let flat = Arc::new(PreparedQuery::new(&rels).unwrap());
            assert_eq!(flat.slots_stream_sorted(), ordered, "{name}");
            handle_batches_match_the_old_merge(&service, &flat, &expected, name);
            let live = live_delta(&rels);
            let ctx = format!("{name}, live buffers");
            handle_batches_match_the_old_merge(&service, &live, &expected, &ctx);
        }
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
        let mut stream = service.submit(&prepared, &service.exec_config()).unwrap();
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
        let seq = join(&rels).unwrap();
        let prepared = Arc::new(PreparedQuery::new(&rels).unwrap());
        let cfg = ExecConfig {
            shard_min_size: 1,
            ..service.exec_config()
        };
        let mut stream = service.submit(&prepared, &cfg).unwrap();
        stream.wait_settled();
        assert!(stream.is_finished());
        let mut merged = Relation::empty(seq.schema().clone());
        while let Some(batch) = stream.next_batch() {
            for row in batch.unwrap().relation.iter_rows() {
                merged.push_row(row).unwrap();
            }
        }
        merged.sort_dedup();
        assert_eq!(merged, seq);
        // Fully drained stream: dropping it must NOT count a cancellation.
        drop(stream);
        assert_eq!(service.counters().cancelled, 0);
    }

    /// A parked worker's handshake: it reports on the sender, then waits
    /// for one message on the receiver. Taken by the first parking.
    type Gate = Arc<Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>>;

    /// A [`FlatIndex`] whose first `descend` on a pool worker parks that
    /// worker at its [`Gate`]. Planning on the submitting thread descends
    /// freely.
    struct Park {
        index: FlatIndex,
        gate: Gate,
    }

    impl SearchTree for Park {
        type Node = <FlatIndex as SearchTree>::Node;
        type Children<'a> = <FlatIndex as SearchTree>::Children<'a>;

        fn build(rel: &Relation, order: &[Attr]) -> Result<Self, StorageError> {
            Ok(Park {
                index: FlatIndex::build(rel, order)?,
                gate: Arc::default(),
            })
        }

        fn root(&self) -> Self::Node {
            self.index.root()
        }

        fn descend(&self, node: Self::Node, v: Value) -> Option<Self::Node> {
            let worker = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("wcoj-service-"));
            if worker {
                let gate = self.gate.lock().unwrap().take();
                if let Some((parked, release)) = gate {
                    parked.send(()).unwrap();
                    release.recv().unwrap();
                }
            }
            self.index.descend(node, v)
        }

        fn distinct_count(&self, node: Self::Node, extra: usize) -> usize {
            self.index.distinct_count(node, extra)
        }

        fn for_each_extension(&self, node: Self::Node, extra: usize, f: impl FnMut(&[Value])) {
            self.index.for_each_extension(node, extra, f);
        }

        fn children(&self, node: Self::Node) -> Self::Children<'_> {
            self.index.children(node)
        }

        fn seek(&self, children: &mut Self::Children<'_>, v: Value) -> Option<Value> {
            SearchTree::seek(&self.index, children, v)
        }

        fn child(&self, children: &Self::Children<'_>) -> Self::Node {
            SearchTree::child(&self.index, children)
        }

        fn labels<'a>(&self, children: &Self::Children<'a>) -> &'a [Value]
        where
            Self: 'a,
        {
            SearchTree::labels(&self.index, children)
        }

        fn child_at(&self, children: &Self::Children<'_>, i: usize) -> Self::Node {
            SearchTree::child_at(&self.index, children, i)
        }
    }

    /// A one-row triangle over [`Park`] trees: the first engine run on a
    /// `wcoj-service-*` thread parks there. Returns the query, a receiver
    /// that fires once that thread is parked and a sender that lets it
    /// finish.
    fn parking_query() -> (
        Arc<PreparedQuery<Park>>,
        mpsc::Receiver<()>,
        mpsc::Sender<()>,
    ) {
        let (parked, on_parked) = mpsc::channel();
        let (release, on_release) = mpsc::channel();
        let gate: Gate = Arc::new(Mutex::new(Some((parked, on_release))));
        // Its leaf probes T's section, so the run descends.
        let rels = [
            rel(&[0, 1], &[&[1, 2]]),
            rel(&[1, 2], &[&[2, 4]]),
            rel(&[0, 2], &[&[1, 4]]),
        ];
        let query = Arc::new(wcoj_core::JoinQuery::new(&rels).unwrap());
        let pin = Arc::new(
            PreparedQuery::<Park>::from_shared(Arc::clone(&query), None, |i, order| {
                let mut park = Park::build(&query.relations()[i], order)?;
                park.gate = Arc::clone(&gate);
                Ok(park)
            })
            .unwrap(),
        );
        (pin, on_parked, release)
    }

    /// Submits a one-shard query that parks the worker running it:
    /// returns its handle, a receiver that fires once the worker is
    /// parked and a sender that lets it finish.
    fn pin_worker(service: &Service) -> (QueryHandle, mpsc::Receiver<()>, mpsc::Sender<()>) {
        let (pin, on_parked, release) = parking_query();
        let cfg = service.exec_config();
        assert_eq!(service.shard_layout(&*pin, &cfg).len(), 1);
        (service.submit(&pin, &cfg).unwrap(), on_parked, release)
    }

    /// A service with no pool.
    fn worker_less(queue_depth: usize) -> Arc<Service> {
        let service = Service::new(ServiceConfig {
            workers: 0,
            ..ServiceConfig::with_workers(1).with_queue_depth(queue_depth)
        });
        assert_eq!(service.workers(), 0);
        Arc::new(service)
    }

    /// Runs `f` on a thread named like a pool worker, so the [`Park`] and
    /// [`PanicAt`] trees act on the engine run it makes inline.
    fn on_worker_named_thread<T: Send + 'static>(
        f: impl FnOnce() -> T + Send + 'static,
    ) -> std::thread::JoinHandle<T> {
        std::thread::Builder::new()
            .name("wcoj-service-caller".into())
            .spawn(f)
            .unwrap()
    }

    #[test]
    fn an_inline_query_parked_in_the_engine_blocks_no_other_caller() {
        // Thread A's query parks inside the engine, on A, while it runs on
        // a shared worker-less service; B's inline submission on the same
        // service completes meanwhile, so no lock is held across a run.
        let service = worker_less(0);
        let (pin, on_parked, release) = parking_query();
        let a = {
            let service = Arc::clone(&service);
            on_worker_named_thread(move || {
                let handle = service.submit(&pin, &service.exec_config()).unwrap();
                assert!(handle.is_finished(), "the run ended before submit returned");
                handle.wait().unwrap()
            })
        };
        on_parked
            .recv_timeout(Duration::from_secs(60))
            .expect("A parked in the engine");
        let c = service.counters();
        assert_eq!((c.submitted, c.completed, c.in_flight), (1, 0, 1), "{c:?}");
        assert_eq!(c.queued_tasks, 0, "an inline task is never queued");

        let rels = triangle();
        let prepared = Arc::new(PreparedQuery::new(&rels).unwrap());
        let handle = service.submit(&prepared, &service.exec_config()).unwrap();
        let profile = handle.profile();
        assert!(profile.is_complete());
        assert_eq!(profile.total_shards, 1);
        assert_eq!(handle.wait().unwrap().relation, join(&rels).unwrap());
        let c = service.counters();
        assert_eq!((c.submitted, c.completed, c.in_flight), (2, 1, 1), "{c:?}");

        release.send(()).unwrap();
        assert_eq!(a.join().unwrap().relation.len(), 1);
        let c = service.counters();
        assert_eq!((c.submitted, c.completed, c.in_flight), (2, 2, 0), "{c:?}");
    }

    #[test]
    fn a_panicking_inline_shard_fails_its_query_and_frees_its_slot() {
        // Admission bound 1: the next submission is admitted only if the
        // panicking one gave its slot back.
        let service = worker_less(1);
        let rels = [
            rel(&[0, 1], &[&[1, 2], &[7, 2]]),
            rel(&[1, 2], &[&[2, 4]]),
            rel(&[0, 2], &[&[1, 4], &[7, 4]]),
        ];
        let poisoned = Arc::new(PreparedQuery::<PanicAt>::new_indexed(&rels).unwrap());
        let seq = join(&rels).unwrap();
        assert!(seq.iter_rows().any(|row| row[0] == POISON));
        let failed = {
            let service = Arc::clone(&service);
            on_worker_named_thread(move || {
                let handle = service.submit(&poisoned, &service.exec_config()).unwrap();
                assert!(handle.is_finished());
                handle.wait()
            })
        };
        assert_eq!(
            failed.join().unwrap().unwrap_err(),
            QueryError::ShardPanicked
        );
        let c = service.counters();
        assert_eq!((c.submitted, c.completed, c.in_flight), (1, 1, 0), "{c:?}");

        // The service keeps serving.
        let healthy = Arc::new(PreparedQuery::new(&rels).unwrap());
        let out = service.submit(&healthy, &service.exec_config()).unwrap();
        assert_eq!(out.wait().unwrap().relation, seq);
        assert_eq!(service.counters().completed, 2);
    }

    #[test]
    fn dropped_stream_cancels_remaining_tasks() {
        // The HTTP disconnect-mid-stream path: one worker, a heavy
        // multi-shard query, the consumer reads the first batch and then
        // goes away. The remaining shards must be skipped and the
        // admission slot freed — a vanished client cannot leak capacity.
        let service = Service::new(ServiceConfig::with_workers(1));
        let (_, heavy) = heavy_blocker(23);
        let cfg = ExecConfig {
            shard_min_size: 1,
            ..service.exec_config()
        };
        let layout = service.shard_layout(&*heavy, &cfg);
        assert!(layout.len() >= 3, "the plan is multi-task: {layout:?}");

        // Force the interleaving instead of racing the engine: with the
        // worker parked in a pin query, queue the heavy query's ring and a
        // second pin behind it. Round-robin then runs shard 0, rotates to
        // the pin, and parks again with every other shard still queued.
        let (first_pin, pinned, release_first) = pin_worker(&service);
        let parked = Duration::from_secs(60);
        pinned.recv_timeout(parked).expect("the worker is parked");
        let mut stream = service.submit(&heavy, &cfg).unwrap();
        let (second_pin, pinned_again, release_second) = pin_worker(&service);
        release_first.send(()).unwrap();
        let first = stream.next_batch().unwrap().unwrap();
        assert_eq!(first.slot, 0);
        pinned_again
            .recv_timeout(parked)
            .expect("the worker is parked behind shard 0");
        drop(stream); // client disconnected mid-stream
        assert_eq!(service.counters().cancelled, 1);
        release_second.send(()).unwrap();
        first_pin.wait().unwrap();
        second_pin.wait().unwrap();

        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let c = service.counters();
            if c.in_flight == 0 && c.queued_tasks == 0 {
                assert_eq!(
                    c.skipped_tasks,
                    layout.len() as u64 - 1,
                    "every shard after the first was skipped: {c:?}"
                );
                assert_eq!(c.completed, 3, "cancelled query still drains");
                break;
            }
            assert!(Instant::now() < deadline, "cancelled query never drained");
            std::thread::yield_now();
        }
    }
}
