//! Server assembly: configuration, the public handle, and the batched
//! worker pool behind the epoll reactor.
//!
//! Life of a request (see also `ARCHITECTURE.md` and `DESIGN.md` §16):
//!
//! 1. the **reactor** thread ([`crate::reactor`]) accepts connections
//!    nonblockingly, applies the connection cap with an explicit `Busy`,
//!    reassembles PVSR frames through per-connection state machines,
//!    validates model id and payload shape against the current
//!    [`SharedRegistry`] snapshot, and pushes a [`Job`] into the bounded
//!    [`JobQueue`] — answering `Busy` when the queue rejects it and
//!    `BadRequest` / `UnknownModel` without ever touching a worker;
//! 2. a **worker** thread coalesces same-model jobs into one forward
//!    batch (deadline-driven, see [`crate::batcher`]), executes it on its
//!    private network clones, and delivers per-row logits back through
//!    the reactor's completion queue;
//! 3. the reactor writes each response frame in request order as the
//!    socket accepts bytes.
//!
//! A panicking worker is caught at the batch boundary: its in-flight
//! batch fails with `Internal`, the worker re-clones its networks from
//! the registry snapshot (discarding any half-updated activation state),
//! and the pool keeps serving — one poisoned batch never becomes a dead
//! server. Workers also watch the registry **generation**: after a hot
//! reload swaps the registry, each worker re-clones at its next batch
//! boundary, so traffic flips to the new model set without dropping any
//! in-flight request.

use crate::batcher::{BatchConfig, Job, JobQueue};
use crate::pool;
use crate::protocol::{Response, Status};
use crate::reactor::{run_reload, CompletionQueue, Lifecycle, Reactor};
use crate::registry::{ModelRegistry, SharedRegistry};
use pv_nn::Mode;
use pv_obs::Clock;
use pv_tensor::error::Result;
use pv_tensor::{Error, Tensor};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Loads a replacement [`ModelRegistry`] for a hot reload. The string
/// argument comes verbatim from the `reload` control frame (the CLI
/// passes a checkpoint path; tests pass whatever selects a fixture).
pub type ReloadFn = Arc<dyn Fn(&str) -> Result<ModelRegistry> + Send + Sync>;

/// Server tuning knobs.
#[derive(Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free loopback port).
    pub addr: String,
    /// Worker threads executing forward batches.
    pub workers: usize,
    /// Micro-batching parameters.
    pub batch: BatchConfig,
    /// Cap on concurrently open connections; excess connections get an
    /// immediate `Busy` response and are closed. The reactor holds two
    /// extra fds (epoll + wake pipe) plus the listener, so budget
    /// `max_connections + 3` against `ulimit -n`.
    pub max_connections: usize,
    /// A connection with no in-flight work and no socket activity for
    /// this long is evicted (slow-loris defence). `Duration::ZERO`
    /// disables eviction.
    pub idle_timeout: Duration,
    /// During a graceful drain, peers that have not consumed their
    /// answers after this long are force-closed so the drain terminates.
    pub drain_deadline: Duration,
    /// Per-connection cap on admitted-but-unanswered requests; past it
    /// the reactor stops reading from the socket (TCP backpressure)
    /// instead of buffering unboundedly.
    pub max_inflight_per_conn: usize,
    /// Whether control frames (`reload` / `drain`) are honored; when
    /// false they answer `BadRequest` and lifecycle is handle-only.
    pub allow_control: bool,
    /// Hot-reload hook: maps the `reload` control argument to a fresh
    /// registry. `None` makes `reload` answer `BadRequest`.
    pub reload: Option<ReloadFn>,
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("addr", &self.addr)
            .field("workers", &self.workers)
            .field("batch", &self.batch)
            .field("max_connections", &self.max_connections)
            .field("idle_timeout", &self.idle_timeout)
            .field("drain_deadline", &self.drain_deadline)
            .field("max_inflight_per_conn", &self.max_inflight_per_conn)
            .field("allow_control", &self.allow_control)
            .field("reload", &self.reload.as_ref().map(|_| "<handler>"))
            .finish()
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            batch: BatchConfig::default(),
            max_connections: 1024,
            idle_timeout: Duration::from_secs(60),
            drain_deadline: Duration::from_secs(5),
            max_inflight_per_conn: 32,
            allow_control: true,
            reload: None,
        }
    }
}

/// A running server: the bound address plus the shared state needed to
/// drain, reload, and join it. Dropping the handle drains the server.
pub struct ServerHandle {
    addr: SocketAddr,
    registry: Arc<SharedRegistry>,
    lifecycle: Arc<Lifecycle>,
    completions: Arc<CompletionQueue>,
    cfg: Arc<ServerConfig>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves `:0` ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The current registry generation (bumped by every successful
    /// reload; starts at 1).
    pub fn generation(&self) -> u64 {
        self.registry.generation()
    }

    /// Requests a graceful drain: stop accepting, finish every admitted
    /// request, flush, then exit. Returns immediately; use
    /// [`wait`](Self::wait) (or [`shutdown`](Self::shutdown)) to block
    /// until the drain completes.
    pub fn drain(&self) {
        self.lifecycle.drain.store(true, Ordering::SeqCst);
        self.completions.wake();
    }

    /// Blocks until the reactor and workers have exited (i.e. a drain —
    /// requested via [`drain`](Self::drain) or a `drain` control frame —
    /// has completed). Idempotent.
    pub fn wait(&mut self) {
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// Hot-swaps the model set through the configured reload handler,
    /// exactly as a `reload` control frame would, and returns the new
    /// registry generation. In-flight requests finish against the
    /// snapshot they were admitted under; workers pick up the new set at
    /// their next batch boundary.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Serve`] when no reload handler is configured or a
    /// reload is already in progress, and whatever the handler or the
    /// swap reports otherwise.
    pub fn reload(&self, arg: &str) -> Result<u64> {
        let handler = self
            .cfg
            .reload
            .as_ref()
            .ok_or_else(|| Error::Serve("no reload handler configured".into()))?;
        if self.lifecycle.reload_busy.swap(true, Ordering::SeqCst) {
            return Err(Error::Serve("a reload is already in progress".into()));
        }
        let outcome = run_reload(handler, &self.registry, arg);
        self.lifecycle.reload_busy.store(false, Ordering::SeqCst);
        if outcome.is_err() {
            pv_obs::counter_add("serve/reload_failed", 1.0);
        }
        outcome
    }

    /// Drains and joins: stops accepting, finishes in-flight work, and
    /// blocks until every thread has exited. Idempotent.
    pub fn shutdown(&mut self) {
        self.drain();
        self.wait();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Starts a batched inference server for `registry` and returns once the
/// listener is bound and every thread is running.
///
/// The clock is injected (never read from the wall inside the library):
/// the CLI passes a `MonotonicClock`, tests may pass a `FakeClock` to
/// make deadline behaviour deterministic.
///
/// # Errors
///
/// Returns [`Error::Serve`] for an empty registry and [`Error::Io`] when
/// the bind, the epoll setup, or the wake pipe fails.
pub fn serve(
    registry: ModelRegistry,
    cfg: ServerConfig,
    clock: Arc<dyn Clock>,
) -> Result<ServerHandle> {
    if registry.is_empty() {
        return Err(Error::Serve(
            "refusing to serve an empty model registry".into(),
        ));
    }
    let listener =
        TcpListener::bind(&cfg.addr).map_err(|e| Error::io(format!("bind {}", cfg.addr), e))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| Error::io("listener nonblocking", e))?;
    let addr = listener
        .local_addr()
        .map_err(|e| Error::io("local_addr", e))?;

    let (wake_tx, wake_rx) = UnixStream::pair().map_err(|e| Error::io("wake pipe", e))?;
    wake_tx
        .set_nonblocking(true)
        .map_err(|e| Error::io("wake pipe nonblocking", e))?;
    wake_rx
        .set_nonblocking(true)
        .map_err(|e| Error::io("wake pipe nonblocking", e))?;

    let queue = Arc::new(JobQueue::new(cfg.batch.queue_capacity));
    let registry = Arc::new(SharedRegistry::new(registry));
    let lifecycle = Arc::new(Lifecycle::new());
    let completions = Arc::new(CompletionQueue::new(wake_tx));
    let cfg = Arc::new(cfg);

    let mut workers = Vec::with_capacity(cfg.workers.max(1));
    for w in 0..cfg.workers.max(1) {
        let queue = Arc::clone(&queue);
        let registry = Arc::clone(&registry);
        let cfg = Arc::clone(&cfg);
        let clock = Arc::clone(&clock);
        workers.push(pool::spawn(&format!("worker{w}"), move || {
            worker_loop(&queue, &registry, &cfg, clock.as_ref());
        }));
    }

    // built on this thread so epoll / registration failures surface as a
    // startup error instead of a dead background thread
    let reactor = Reactor::new(
        listener,
        wake_rx,
        Arc::clone(&completions),
        Arc::clone(&lifecycle),
        Arc::clone(&queue),
        Arc::clone(&registry),
        Arc::clone(&cfg),
        clock,
    )?;
    let reactor = pool::spawn("reactor", move || reactor.run());

    Ok(ServerHandle {
        addr,
        registry,
        lifecycle,
        completions,
        cfg,
        reactor: Some(reactor),
        workers,
    })
}

/// One worker: pull a batch, execute it behind the fault boundary,
/// deliver per-row logits through each job's [`crate::batcher::Reply`].
fn worker_loop(queue: &JobQueue, shared: &SharedRegistry, cfg: &ServerConfig, clock: &dyn Clock) {
    let mut generation = shared.generation();
    let mut models = shared.snapshot().clone_models();
    while let Some(batch) = queue.next_batch(clock, &cfg.batch) {
        // hot reload: pick up the swapped registry at a batch boundary —
        // never mid-batch, so each batch runs on one coherent model set
        let current = shared.generation();
        if current != generation {
            generation = current;
            models = shared.snapshot().clone_models();
            pv_obs::counter_add("serve/worker_refreshes", 1.0);
        }
        pv_obs::histogram_ns("serve/batch_size", batch.len() as u64);
        let t0 = clock.now_ns();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_batch(&mut models, &batch)
        }));
        pv_obs::histogram_ns("serve/batch_exec_ns", clock.now_ns().saturating_sub(t0));
        match outcome {
            Ok(Ok(rows)) => {
                pv_obs::counter_add("serve/served", batch.len() as f64);
                let n = batch.len() as u32;
                for (job, row) in batch.iter().zip(rows) {
                    job.reply.deliver(Response::ok(row, n));
                }
            }
            Ok(Err(e)) => {
                // admission validated shape and registration, so this is a
                // server-side defect, not the client's fault
                pv_obs::counter_add("serve/failed", batch.len() as f64);
                for job in &batch {
                    job.reply
                        .deliver(Response::failure(Status::Internal, e.to_string()));
                }
            }
            Err(_panic) => {
                pv_obs::counter_add("serve/failed", batch.len() as f64);
                for job in &batch {
                    job.reply.deliver(Response::failure(
                        Status::Internal,
                        "worker fault while executing batch",
                    ));
                }
                // discard potentially half-updated activation state: the
                // registry snapshot is the clean source of truth
                models = shared.snapshot().clone_models();
            }
        }
    }
}

/// Stacks a single-model batch, runs one forward pass, and splits the
/// logits back into per-request rows.
fn execute_batch(
    models: &mut std::collections::BTreeMap<String, crate::registry::ModelEntry>,
    batch: &[Job],
) -> Result<Vec<Tensor>> {
    // pv-analyze: allow(lib-panic) -- next_batch never returns an empty batch
    let model_id = &batch.first().expect("non-empty batch").model;
    let entry = models
        .get_mut(model_id)
        .ok_or_else(|| Error::Serve(format!("model '{model_id}' vanished from the registry")))?;
    let sample_shape = batch[0].input.shape().to_vec();
    let mut shape = Vec::with_capacity(sample_shape.len() + 1);
    shape.push(batch.len());
    shape.extend_from_slice(&sample_shape);
    let mut data = Vec::with_capacity(shape.iter().product());
    for job in batch {
        data.extend_from_slice(job.input.data());
    }
    let stacked = Tensor::from_vec(shape, data);
    // Honor the model's pinned backend (if any) for the whole forward
    // pass: the scope is thread-local, and kernels resolve their backend
    // on this worker thread before fanning out to pv-par workers, so the
    // override covers every kernel in the pass.
    let net = &mut entry.net;
    let logits = match entry.backend {
        Some(b) => pv_tensor::with_backend(b, || net.try_forward_batch(&stacked, Mode::Eval))?,
        None => net.try_forward_batch(&stacked, Mode::Eval)?,
    };
    let row_shape: Vec<usize> = logits.shape()[1..].to_vec();
    Ok((0..batch.len())
        .map(|i| logits.slice_first_axis(i, i + 1).reshape(&row_shape))
        .collect())
}
