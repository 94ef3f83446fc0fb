//! The forecast server: bounded admission, a thread-per-worker predictor
//! pool, deadline budgets, panic containment, and epoch-style model
//! hot-swap.
//!
//! ## Threading model
//!
//! `InferSession` arenas are deliberately thread-pinned (`!Send`), so the
//! pool is thread-per-worker: each worker thread builds its *own*
//! [`Predictor`] inside the thread from the shared model `Arc` and the
//! once-built [`InferAssets`], and serves requests from a shared bounded
//! queue (std `Mutex` + `Condvar`; the service deliberately uses only std
//! primitives). Requests resolve to a response through a 1-slot rendezvous
//! channel held by the caller's [`Pending`] handle.
//!
//! ## Lifecycle of a request
//!
//! 1. **Admission** ([`Server::submit`]): `Latest` requests snapshot the
//!    ingest ring *now* (so the forecast reflects the data at submit time)
//!    and apply circuit-breaker masking; requests are stamped with their
//!    deadline. A closed server rejects with `ShuttingDown`; a full queue —
//!    after watermark shedding of already-expired entries — rejects with
//!    `Overloaded`.
//! 2. **Queue-pop** (worker): a request whose deadline has already passed is
//!    shed *before* any compute is spent on it (`DeadlineExceeded`).
//! 3. **Execution**: the worker checks the swap generation, rebinding its
//!    predictor if a hot-swap happened since its last request, then runs the
//!    checked prediction path. A panic during execution is contained by
//!    `catch_unwind`: the caller gets `WorkerPanicked`, the worker rebuilds
//!    its predictor (the arena may be mid-state) and keeps serving.
//! 4. **Response**: exactly one of [`ForecastResponse`] or
//!    [`ServeError`] per accepted request — the chaos suite counts both
//!    sides and asserts nothing is ever silently dropped.
//!
//! ## Hot-swap protocol
//!
//! [`Server::swap_model`] installs a new [`SharedModel`] only if its config
//! fingerprint equals the serving one (the [`InferAssets`] are functions of
//! the config, so a fingerprint match makes the cached assets valid for the
//! new weights). The swap is epoch-style: a generation counter bumps
//! atomically; workers notice at their next queue-pop and rebind. In-flight
//! requests finish on whichever model they started with — none are dropped.

use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::health::HealthTracker;
use crate::ingest::IngestRing;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use stsm_core::{DataQuality, InferAssets, OnlineTrainer, Predictor, ProblemInstance, SharedModel};
use stsm_tensor::{telemetry, Tensor};

/// What to forecast.
#[derive(Debug, Clone)]
pub enum RequestKind {
    /// Forecast the test window starting at this absolute step of the
    /// problem's dataset (the batch-evaluation shape).
    Window {
        /// First step of the input window.
        abs_start: usize,
    },
    /// Forecast from the most recent `t_in` ingested steps. Snapshot is
    /// taken at submit time; open circuit breakers mask their sensors out.
    Latest,
    /// Chaos hook: the executing worker panics. Used by the chaos suite to
    /// prove panic containment; never produces a forecast.
    ChaosPanic,
    /// Chaos hook: the executing worker sleeps this long, occupying a pool
    /// slot (the suite uses it to force queue overflow deterministically),
    /// then answers `BadRequest`.
    ChaosStall(Duration),
}

/// A forecast request: what to predict plus an optional deadline budget.
#[derive(Debug, Clone)]
pub struct ForecastRequest {
    /// What to forecast.
    pub kind: RequestKind,
    /// Deadline budget measured from submission; `None` falls back to
    /// [`ServeConfig::default_deadline`].
    pub deadline: Option<Duration>,
}

impl ForecastRequest {
    /// A dataset-window request.
    pub fn window(abs_start: usize) -> Self {
        ForecastRequest { kind: RequestKind::Window { abs_start }, deadline: None }
    }

    /// A latest-ingested-data request.
    pub fn latest() -> Self {
        ForecastRequest { kind: RequestKind::Latest, deadline: None }
    }

    /// Sets an explicit deadline budget.
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// A chaos hook that panics the executing worker.
    pub fn chaos_panic() -> Self {
        ForecastRequest { kind: RequestKind::ChaosPanic, deadline: None }
    }

    /// A chaos hook that stalls the executing worker for `d`.
    pub fn chaos_stall(d: Duration) -> Self {
        ForecastRequest { kind: RequestKind::ChaosStall(d), deadline: None }
    }
}

/// A completed forecast.
#[derive(Debug, Clone)]
pub struct ForecastResponse {
    /// Scaled predictions, `(N, T', 1)` — the same tensor
    /// [`Predictor::predict_window_checked`] returns.
    pub prediction: Tensor,
    /// What the sanitizer imputed (blend / carry / unrecoverable counts).
    pub quality: DataQuality,
    /// Sensors masked out of this request by open circuit breakers
    /// (`Latest` requests only; masked rows surface in `quality` as
    /// imputed).
    pub breaker_masked: usize,
    /// Swap generation of the model that served this request.
    pub generation: u64,
    /// Time spent queued before a worker picked the request up.
    pub queued: Duration,
    /// Time spent in the predictor.
    pub compute: Duration,
}

/// Always-on service counters (independent of the `STSM_TELEMETRY` gate, so
/// the chaos suite's accounting works in any configuration).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests admitted into the queue.
    pub accepted: u64,
    /// Requests answered with a forecast.
    pub completed: u64,
    /// Requests answered `DeadlineExceeded` (shed at pop or by watermark).
    pub deadline_exceeded: u64,
    /// Submissions rejected `Overloaded`.
    pub overloaded: u64,
    /// Submissions rejected `ShuttingDown`.
    pub shutdown_rejected: u64,
    /// Submissions rejected `ColdStart`.
    pub cold_start: u64,
    /// Requests answered `BadRequest` (at submit or, for chaos stalls, at
    /// execution).
    pub bad_request: u64,
    /// Requests answered `WorkerPanicked`.
    pub worker_panics: u64,
    /// Predictor rebuilds after a contained panic.
    pub worker_respawns: u64,
    /// Successful hot-swaps.
    pub swaps: u64,
    /// Hot-swaps rejected for a fingerprint mismatch.
    pub swaps_rejected: u64,
    /// Steps fed through [`Server::ingest_step`].
    pub ingested_steps: u64,
    /// Circuit breakers tripped open.
    pub breaker_trips: u64,
    /// Circuit breakers closed again.
    pub breaker_closes: u64,
    /// Current swap generation (0 until the first swap).
    pub generation: u64,
}

#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    completed: AtomicU64,
    deadline_exceeded: AtomicU64,
    overloaded: AtomicU64,
    shutdown_rejected: AtomicU64,
    cold_start: AtomicU64,
    bad_request: AtomicU64,
    worker_panics: AtomicU64,
    worker_respawns: AtomicU64,
    swaps: AtomicU64,
    swaps_rejected: AtomicU64,
    ingested_steps: AtomicU64,
}

impl Counters {
    fn bump(&self, c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }
}

/// Caller-side handle to an in-flight request.
pub struct Pending {
    rx: Receiver<Result<ForecastResponse, ServeError>>,
}

impl Pending {
    /// Blocks until the request terminates. A severed channel (possible
    /// only if the serving thread died un-respawnably) maps to
    /// [`ServeError::WorkerPanicked`] — the caller always gets a typed
    /// answer.
    pub fn wait(self) -> Result<ForecastResponse, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::WorkerPanicked))
    }

    /// Non-blocking poll; `None` while the request is still in flight.
    pub fn try_wait(&self) -> Option<Result<ForecastResponse, ServeError>> {
        self.rx.try_recv().ok()
    }
}

/// A queued unit of work, with the `Latest` snapshot already resolved.
enum JobKind {
    Window { abs_start: usize },
    Sources { sources: Vec<f32>, abs_start: usize, breaker_masked: usize },
    ChaosPanic,
    ChaosStall(Duration),
}

struct Job {
    kind: JobKind,
    enqueued: Instant,
    deadline: Option<Instant>,
    tx: SyncSender<Result<ForecastResponse, ServeError>>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// One installed model epoch. Workers hold an `Arc` to the slot they bound
/// and compare generations to detect swaps.
struct ModelSlot {
    model: SharedModel,
    generation: u64,
    fingerprint: u64,
}

struct IngestState {
    ring: IngestRing,
    health: HealthTracker,
}

struct Inner {
    cfg: ServeConfig,
    problem: Arc<ProblemInstance>,
    assets: InferAssets,
    t_in: usize,
    queue: Mutex<QueueState>,
    not_empty: Condvar,
    model: Mutex<Arc<ModelSlot>>,
    generation: AtomicU64,
    ingest: Mutex<IngestState>,
    counters: Counters,
}

/// Locks a mutex, recovering the guard if a past panic poisoned it — the
/// state protected here (queue, slot pointer, ring) stays consistent across
/// the panics the chaos suite injects, which all happen outside these locks.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A running forecast service. See the module docs for the architecture.
///
/// Dropping a `Server` drains and joins the pool ([`Server::shutdown`] does
/// the same but returns the final [`ServeStats`]).
pub struct Server {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Builds the serving assets once (the expensive DTW search), then
    /// spawns `cfg.workers` worker threads, each binding its own predictor
    /// to `model`.
    pub fn start(problem: Arc<ProblemInstance>, model: SharedModel, cfg: ServeConfig) -> Server {
        let cfg = cfg.normalized();
        let assets = InferAssets::new(model.cfg(), &problem);
        let t_in = model.cfg().t_in;
        let n_obs = problem.observed.len();
        let fingerprint = model.fingerprint();
        let inner = Arc::new(Inner {
            t_in,
            assets,
            queue: Mutex::new(QueueState { jobs: VecDeque::new(), closed: false }),
            not_empty: Condvar::new(),
            model: Mutex::new(Arc::new(ModelSlot { model, generation: 0, fingerprint })),
            generation: AtomicU64::new(0),
            ingest: Mutex::new(IngestState {
                ring: IngestRing::new(n_obs, t_in.max(1)),
                health: HealthTracker::new(
                    n_obs,
                    cfg.breaker_trip_windows.saturating_mul(t_in),
                    cfg.breaker_close_windows.saturating_mul(t_in),
                ),
            }),
            counters: Counters::default(),
            problem,
            cfg,
        });
        let workers = (0..inner.cfg.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("stsm-serve-{i}"))
                    .spawn(move || worker_main(&inner))
                    .expect("spawn serve worker")
            })
            .collect();
        Server { inner, workers }
    }

    /// Feeds one step of live readings (one per observed sensor, in
    /// `problem.observed` order, in the problem's *scaled* units; NaN for
    /// sensors that produced nothing). Updates the ring buffer and the
    /// circuit breakers.
    pub fn ingest_step(&self, readings: &[f32]) {
        let mut ing = lock_recover(&self.inner.ingest);
        ing.health.observe_step(readings);
        ing.ring.push_step(readings);
        self.inner.counters.bump(&self.inner.counters.ingested_steps);
    }

    /// Submits a request. `Ok` returns a [`Pending`] handle that will
    /// resolve to a forecast or a typed error; `Err` is an immediate typed
    /// rejection (admission control never blocks the caller).
    pub fn submit(&self, req: ForecastRequest) -> Result<Pending, ServeError> {
        let c = &self.inner.counters;
        let kind = match req.kind {
            RequestKind::Window { abs_start } => {
                let t_total = self.inner.problem.dataset.t_total;
                if abs_start + self.inner.t_in > t_total {
                    c.bump(&c.bad_request);
                    return Err(ServeError::BadRequest(format!(
                        "window start {abs_start} + t_in {} exceeds dataset length {t_total}",
                        self.inner.t_in
                    )));
                }
                JobKind::Window { abs_start }
            }
            RequestKind::Latest => {
                let ing = lock_recover(&self.inner.ingest);
                match ing.ring.snapshot_window(self.inner.t_in) {
                    None => {
                        c.bump(&c.cold_start);
                        return Err(ServeError::ColdStart {
                            have: ing.ring.steps(),
                            need: self.inner.t_in,
                        });
                    }
                    Some((mut sources, abs_start)) => {
                        let breaker_masked = ing.health.mask_sources(&mut sources, self.inner.t_in);
                        JobKind::Sources { sources, abs_start, breaker_masked }
                    }
                }
            }
            RequestKind::ChaosPanic => JobKind::ChaosPanic,
            RequestKind::ChaosStall(d) => JobKind::ChaosStall(d),
        };
        let now = Instant::now();
        let deadline = req.deadline.or(self.inner.cfg.default_deadline).map(|budget| now + budget);
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        let job = Job { kind, enqueued: now, deadline, tx };

        let mut q = lock_recover(&self.inner.queue);
        if q.closed {
            c.bump(&c.shutdown_rejected);
            return Err(ServeError::ShuttingDown);
        }
        if q.jobs.len() >= self.inner.cfg.shed_watermark {
            // Load-shed: answer every already-expired queued request now so
            // remaining capacity goes to requests that can still make it.
            q.jobs.retain(|j| match j.deadline {
                Some(dl) if now > dl => {
                    let _ = j.tx.send(Err(ServeError::DeadlineExceeded { late_by: now - dl }));
                    c.bump(&c.deadline_exceeded);
                    telemetry::count("serve.deadline_exceeded", 1);
                    false
                }
                _ => true,
            });
        }
        if q.jobs.len() >= self.inner.cfg.queue_depth {
            c.bump(&c.overloaded);
            telemetry::count("serve.overloaded", 1);
            return Err(ServeError::Overloaded { depth: q.jobs.len() });
        }
        q.jobs.push_back(job);
        c.bump(&c.accepted);
        telemetry::record_value("serve.queue_depth", q.jobs.len() as u64);
        drop(q);
        self.inner.not_empty.notify_one();
        Ok(Pending { rx })
    }

    /// Atomically replaces the serving model with `model`, provided its
    /// config fingerprint matches the serving one (see the module docs for
    /// why this is required, not advisory). Returns the new swap generation.
    /// In-flight and queued requests are never dropped; workers rebind at
    /// their next queue-pop.
    pub fn swap_model(&self, model: SharedModel) -> Result<u64, ServeError> {
        let offered = model.fingerprint();
        let mut slot = lock_recover(&self.inner.model);
        if slot.fingerprint != offered {
            self.inner.counters.bump(&self.inner.counters.swaps_rejected);
            return Err(ServeError::FingerprintMismatch { serving: slot.fingerprint, offered });
        }
        let generation = slot.generation + 1;
        *slot = Arc::new(ModelSlot { model, generation, fingerprint: offered });
        self.inner.generation.store(generation, Ordering::Release);
        self.inner.counters.bump(&self.inner.counters.swaps);
        telemetry::count("serve.swap", 1);
        Ok(generation)
    }

    /// Online-adaptation refresh hook: snapshots an [`OnlineTrainer`]'s
    /// current weights and hot-swaps them in through the same
    /// fingerprint-gated [`Server::swap_model`] path (the trainer shares
    /// the serving config, so the cached [`InferAssets`] stay valid).
    /// Returns the new swap generation.
    pub fn swap_refreshed(&self, trainer: &OnlineTrainer) -> Result<u64, ServeError> {
        let trained = trainer
            .trained()
            .map_err(|e| ServeError::BadRequest(format!("online snapshot failed: {e}")))?;
        self.swap_model(SharedModel::F32(Arc::new(trained)))
    }

    /// Current always-on counters. Callable at any time; for the exact
    /// final numbers use the snapshot [`Server::shutdown`] returns.
    pub fn stats(&self) -> ServeStats {
        let c = &self.inner.counters;
        let (breaker_trips, breaker_closes) = lock_recover(&self.inner.ingest).health.totals();
        ServeStats {
            accepted: c.accepted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            deadline_exceeded: c.deadline_exceeded.load(Ordering::Relaxed),
            overloaded: c.overloaded.load(Ordering::Relaxed),
            shutdown_rejected: c.shutdown_rejected.load(Ordering::Relaxed),
            cold_start: c.cold_start.load(Ordering::Relaxed),
            bad_request: c.bad_request.load(Ordering::Relaxed),
            worker_panics: c.worker_panics.load(Ordering::Relaxed),
            worker_respawns: c.worker_respawns.load(Ordering::Relaxed),
            swaps: c.swaps.load(Ordering::Relaxed),
            swaps_rejected: c.swaps_rejected.load(Ordering::Relaxed),
            ingested_steps: c.ingested_steps.load(Ordering::Relaxed),
            breaker_trips,
            breaker_closes,
            generation: self.inner.generation.load(Ordering::Acquire),
        }
    }

    /// Requests currently queued (not counting those being executed).
    pub fn queue_len(&self) -> usize {
        lock_recover(&self.inner.queue).jobs.len()
    }

    /// Stops admission immediately — subsequent submits are rejected with
    /// [`ServeError::ShuttingDown`] — while the pool keeps draining what is
    /// already queued. [`Server::shutdown`] (or drop) still joins the pool.
    pub fn begin_drain(&self) {
        lock_recover(&self.inner.queue).closed = true;
        self.inner.not_empty.notify_all();
    }

    /// Graceful drain: stops admitting, serves everything already queued,
    /// joins the pool, and returns the final counters.
    pub fn shutdown(mut self) -> ServeStats {
        self.close_and_join();
        self.stats()
    }

    fn close_and_join(&mut self) {
        lock_recover(&self.inner.queue).closed = true;
        self.inner.not_empty.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

/// Outer worker loop: respawns the serving loop (with a fresh predictor) if
/// it ever unwinds outside the per-job containment. Exits only on drain.
fn worker_main(inner: &Arc<Inner>) {
    loop {
        let done = catch_unwind(AssertUnwindSafe(|| serve_loop(inner)));
        match done {
            Ok(()) => return,
            Err(_) => {
                inner.counters.bump(&inner.counters.worker_respawns);
                telemetry::count("serve.worker.respawn", 1);
            }
        }
    }
}

/// Pops one job, or `None` once the queue is closed *and* drained.
fn pop_job(inner: &Inner) -> Option<Job> {
    let mut q = lock_recover(&inner.queue);
    loop {
        if let Some(job) = q.jobs.pop_front() {
            return Some(job);
        }
        if q.closed {
            return None;
        }
        q = inner.not_empty.wait(q).unwrap_or_else(|poisoned| poisoned.into_inner());
    }
}

fn serve_loop(inner: &Arc<Inner>) {
    let mut slot = lock_recover(&inner.model).clone();
    let mut predictor = Predictor::new_shared_with_assets(slot.model.clone(), &inner.assets);
    while let Some(job) = pop_job(inner) {
        let picked_up = Instant::now();
        if let Some(dl) = job.deadline {
            if picked_up > dl {
                // Shed before spending compute on a forecast nobody can use.
                let _ = job.tx.send(Err(ServeError::DeadlineExceeded { late_by: picked_up - dl }));
                inner.counters.bump(&inner.counters.deadline_exceeded);
                telemetry::count("serve.deadline_exceeded", 1);
                continue;
            }
        }
        let current = inner.generation.load(Ordering::Acquire);
        if current != slot.generation {
            slot = lock_recover(&inner.model).clone();
            predictor = Predictor::new_shared_with_assets(slot.model.clone(), &inner.assets);
            telemetry::count("serve.swap.rebind", 1);
        }
        let queued = picked_up - job.enqueued;
        let outcome = catch_unwind(AssertUnwindSafe(|| run_job(&mut predictor, inner, job.kind)));
        match outcome {
            Ok(Ok((prediction, quality, breaker_masked))) => {
                let compute = picked_up.elapsed();
                inner.counters.bump(&inner.counters.completed);
                telemetry::record_duration("serve.request", job.enqueued.elapsed());
                telemetry::record_duration("serve.queue_wait", queued);
                telemetry::record_duration("serve.compute", compute);
                let _ = job.tx.send(Ok(ForecastResponse {
                    prediction,
                    quality,
                    breaker_masked,
                    generation: slot.generation,
                    queued,
                    compute,
                }));
            }
            Ok(Err(e)) => {
                if matches!(e, ServeError::BadRequest(_)) {
                    inner.counters.bump(&inner.counters.bad_request);
                }
                let _ = job.tx.send(Err(e));
            }
            Err(_) => {
                // Contained: answer this caller, rebuild the (possibly
                // mid-state) predictor, keep serving everyone else.
                inner.counters.bump(&inner.counters.worker_panics);
                telemetry::count("serve.worker.panic", 1);
                let _ = job.tx.send(Err(ServeError::WorkerPanicked));
                predictor = Predictor::new_shared_with_assets(slot.model.clone(), &inner.assets);
                inner.counters.bump(&inner.counters.worker_respawns);
                telemetry::count("serve.worker.respawn", 1);
            }
        }
    }
}

type JobOutput = Result<(Tensor, DataQuality, usize), ServeError>;

fn run_job(predictor: &mut Predictor<'static>, inner: &Inner, kind: JobKind) -> JobOutput {
    match kind {
        JobKind::Window { abs_start } => {
            let (prediction, quality) = predictor.predict_window_checked(&inner.problem, abs_start);
            Ok((prediction, quality, 0))
        }
        JobKind::Sources { mut sources, abs_start, breaker_masked } => {
            let (prediction, quality) =
                predictor.predict_sources_checked(&inner.problem, &mut sources, abs_start);
            Ok((prediction, quality, breaker_masked))
        }
        JobKind::ChaosPanic => panic!("chaos: worker panic requested"),
        JobKind::ChaosStall(d) => {
            std::thread::sleep(d);
            Err(ServeError::BadRequest("chaos stall produces no forecast".into()))
        }
    }
}
