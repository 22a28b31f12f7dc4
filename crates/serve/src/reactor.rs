//! The epoll reactor: one event-loop thread that owns the listener and
//! every connection, replacing the PR 5 thread-per-connection model.
//!
//! Division of labour (DESIGN.md §16 has the full spec and diagrams):
//!
//! * the **reactor thread** (this module) accepts connections, pumps
//!   nonblocking sockets, reassembles PVSR frames through the
//!   per-connection state machines (`conn` module), runs admission
//!   (model lookup + shape check against the current registry snapshot),
//!   and pushes accepted jobs into the bounded job queue.
//!   It never executes a forward pass and never blocks on a socket;
//! * **worker threads** (`server` module) pull batches, execute them,
//!   and hand each response back through the completion queue, which
//!   wakes the reactor via a loopback socketpair;
//! * the reactor matches completions to their per-connection reply slots
//!   and writes response frames out in request order.
//!
//! Lifecycle operations ride the same event loop: a control frame (or
//! [`ServerHandle`](crate::ServerHandle)) can request **drain** — stop
//! accepting, stop parsing, answer everything already admitted, then
//! exit — or **hot reload**, which loads a new registry on a side thread
//! and atomically swaps it in without dropping in-flight requests.
//!
//! Timeouts (idle eviction / slow-loris defence, the drain deadline) are
//! measured on the injected [`Clock`]; the epoll wait timeout is only a
//! wake-up cadence, never a correctness input.

use crate::batcher::{Job, JobQueue, Reply};
use crate::conn::{Connection, Pending, ReadState, ReplyKind, WriteState};
use crate::pool;
use crate::protocol::{
    decode_control_request, decode_request, encode_control_response, encode_response, frame_kind,
    ControlOp, ControlResponse, Response, Status,
};
use crate::registry::SharedRegistry;
use crate::server::ServerConfig;
use crate::sys::{EventPoll, Interest};
use pv_obs::Clock;
use pv_tensor::error::Result;
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Epoll token of the TCP listener.
const TOKEN_LISTENER: u64 = 0;
/// Epoll token of the completion-queue wake pipe.
const TOKEN_WAKER: u64 = 1;
/// First token handed to an accepted connection. Tokens are never reused
/// (a `u64` does not wrap in practice), so a late completion can never be
/// misdelivered to a newer connection.
const TOKEN_FIRST_CONN: u64 = 2;

/// Reactor wake-up cadence in milliseconds while connections exist — the
/// granularity of idle sweeps and the drain deadline, not a correctness
/// input (readiness and completions wake the loop immediately).
const SWEEP_MS: i32 = 50;

/// One finished response travelling from a worker back to the reactor.
struct Completion {
    conn: u64,
    seq: u64,
    resp: Response,
}

/// The worker→reactor hand-off: a mutex'd batch of completions plus the
/// write end of a loopback socketpair that wakes the event loop.
///
/// [`deliver`](CompletionQueue::deliver) never blocks: the lock is held
/// only for a push, and the wake write is nonblocking (a full pipe means
/// a wake-up is already pending, which is all the reactor needs).
pub(crate) struct CompletionQueue {
    inner: Mutex<Vec<Completion>>,
    waker: UnixStream,
}

impl CompletionQueue {
    /// Wraps the (nonblocking) write end of the reactor's wake pipe.
    pub(crate) fn new(waker: UnixStream) -> Self {
        Self {
            inner: Mutex::new(Vec::new()),
            waker,
        }
    }

    /// Queues a response for connection `conn`'s reply slot `seq` and
    /// wakes the reactor.
    pub(crate) fn deliver(&self, conn: u64, seq: u64, resp: Response) {
        {
            let mut batch = self
                .inner
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            batch.push(Completion { conn, seq, resp });
        }
        self.wake();
    }

    /// Wakes the reactor without queueing anything (used by
    /// [`crate::server::ServerHandle`] to make a drain request visible).
    pub(crate) fn wake(&self) {
        // one byte is one wake-up; WouldBlock means wake-ups are already
        // pending, so losing this write is harmless
        let _ = (&self.waker).write(&[1u8]);
    }

    fn drain(&self) -> Vec<Completion> {
        let mut batch = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        std::mem::take(&mut *batch)
    }
}

/// Cross-thread lifecycle flags shared by the reactor, the server
/// handle, and the reload side-thread.
pub(crate) struct Lifecycle {
    /// A graceful drain has been requested (by a control frame or the
    /// server handle).
    pub drain: AtomicBool,
    /// A reload is currently running on a side thread; concurrent reload
    /// requests bounce with `Busy`.
    pub reload_busy: AtomicBool,
}

impl Lifecycle {
    pub fn new() -> Self {
        Self {
            drain: AtomicBool::new(false),
            reload_busy: AtomicBool::new(false),
        }
    }
}

/// Loads a new registry through the configured handler and atomically
/// swaps it in; returns the new generation. Shared by the reactor's
/// control path and [`crate::server::ServerHandle::reload`].
pub(crate) fn run_reload(
    handler: &crate::server::ReloadFn,
    registry: &SharedRegistry,
    arg: &str,
) -> Result<u64> {
    let _span = pv_obs::span("serve", "reload");
    let generation = handler(arg).and_then(|r| registry.swap(r))?;
    pv_obs::counter_add("serve/reloads", 1.0);
    Ok(generation)
}

/// A connection plus the interest set currently registered for it (kept
/// here so interest changes become epoll_ctl calls only when they differ).
struct Registered {
    conn: Connection,
    interest: Interest,
}

/// The event loop state. Built on the `serve()` caller's thread (so bind
/// and epoll failures surface as startup errors), then moved onto the
/// reactor thread.
pub(crate) struct Reactor {
    poll: EventPoll,
    listener: Option<TcpListener>,
    wake_rx: UnixStream,
    completions: Arc<CompletionQueue>,
    lifecycle: Arc<Lifecycle>,
    queue: Arc<JobQueue>,
    registry: Arc<SharedRegistry>,
    cfg: Arc<ServerConfig>,
    clock: Arc<dyn Clock>,
    conns: BTreeMap<u64, Registered>,
    next_token: u64,
    draining: bool,
    drain_started_ns: u64,
}

impl Reactor {
    /// Registers the listener and wake pipe with a fresh epoll instance.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the epoll instance or a registration
    /// fails — `serve()` surfaces this before any thread spawns.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        listener: TcpListener,
        wake_rx: UnixStream,
        completions: Arc<CompletionQueue>,
        lifecycle: Arc<Lifecycle>,
        queue: Arc<JobQueue>,
        registry: Arc<SharedRegistry>,
        cfg: Arc<ServerConfig>,
        clock: Arc<dyn Clock>,
    ) -> Result<Self> {
        let poll = EventPoll::new(1024)?;
        poll.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poll.add(wake_rx.as_raw_fd(), TOKEN_WAKER, Interest::READ)?;
        Ok(Self {
            poll,
            listener: Some(listener),
            wake_rx,
            completions,
            lifecycle,
            queue,
            registry,
            cfg,
            clock,
            conns: BTreeMap::new(),
            next_token: TOKEN_FIRST_CONN,
            draining: false,
            drain_started_ns: 0,
        })
    }

    /// The event loop. Returns once a drain completes: every admitted
    /// request answered and flushed (or the drain deadline passed), all
    /// connections closed, and the job queue stopped.
    pub fn run(mut self) {
        loop {
            let timeout_ms = if self.conns.is_empty() && !self.draining {
                -1 // fully idle: readiness or a wake-up will rouse us
            } else {
                SWEEP_MS
            };
            let events: Vec<crate::sys::Event> = match self.poll.wait(timeout_ms) {
                Ok(events) => events.to_vec(),
                Err(_) => {
                    // an unusable epoll fd cannot be served around; fail
                    // into an orderly drain so workers and callers unblock
                    pv_obs::counter_add("serve/reactor_errors", 1.0);
                    self.lifecycle.drain.store(true, Ordering::SeqCst);
                    self.begin_drain();
                    break;
                }
            };
            for ev in events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_burst(),
                    TOKEN_WAKER => self.on_wake(),
                    token => self.service_conn(token, ev.readable || ev.hangup, ev.writable),
                }
            }
            if self.lifecycle.drain.load(Ordering::SeqCst) && !self.draining {
                self.begin_drain();
            }
            self.sweep();
            if self.draining && self.conns.is_empty() {
                break;
            }
        }
        // stop the workers: queued jobs still drain (their completions
        // have nowhere to go once we return, but drain already answered
        // or force-closed every connection)
        self.queue.stop();
        pv_obs::gauge_set("serve/connections", 0.0);
    }

    /// Accepts until the listener would block, applying the connection
    /// cap with an explicit `Busy` frame (never a silent drop).
    fn accept_burst(&mut self) {
        let _span = pv_obs::span("serve", "accept_burst");
        let now_ns = self.clock.now_ns();
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return; // draining: listener already closed
            };
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if self.conns.len() >= self.cfg.max_connections.max(1) {
                        pv_obs::counter_add("serve/rejected", 1.0);
                        reject_busy(stream);
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue; // a socket we cannot drive is useless
                    }
                    let token = self.next_token;
                    self.next_token = self.next_token.wrapping_add(1);
                    let conn = Connection::new(stream, now_ns);
                    if self.poll.add(conn.fd(), token, Interest::READ).is_err() {
                        pv_obs::counter_add("serve/reactor_errors", 1.0);
                        continue;
                    }
                    pv_obs::counter_add("serve/accepted_conns", 1.0);
                    self.conns.insert(
                        token,
                        Registered {
                            conn,
                            interest: Interest::READ,
                        },
                    );
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break, // transient accept error; retry next event
            }
        }
        pv_obs::gauge_set("serve/connections", self.conns.len() as f64);
    }

    /// Drains the wake pipe and routes queued completions to their
    /// connections' reply slots.
    fn on_wake(&mut self) {
        let mut sink = [0u8; 64];
        loop {
            match (&self.wake_rx).read(&mut sink) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break, // WouldBlock: pipe drained
            }
        }
        for done in self.completions.drain() {
            let matched = self
                .conns
                .get_mut(&done.conn)
                .is_some_and(|reg| reg.conn.fulfill(done.seq, done.resp));
            if matched {
                self.service_conn(done.conn, false, false);
            } else {
                // the peer left (or was force-closed) before its answer
                // arrived — the work is discarded, visibly
                pv_obs::counter_add("serve/dropped_replies", 1.0);
            }
        }
    }

    /// Pumps one connection: read, parse/admit, encode ready replies,
    /// flush, then reconcile epoll interest — and drops the connection
    /// once it is finished or the transport died.
    fn service_conn(&mut self, token: u64, readable: bool, _writable: bool) {
        let now_ns = self.clock.now_ns();
        let Some(reg) = self.conns.get_mut(&token) else {
            return; // already dropped this iteration
        };
        let mut peer_closed = false;
        if readable {
            match reg.conn.read_ready(now_ns) {
                Ok(ReadState::PeerClosed) => peer_closed = true,
                Ok(ReadState::Open) | Err(_) => {}
            }
        }
        self.parse_frames(token, now_ns);
        self.flush_ready(token, now_ns);

        let Some(reg) = self.conns.get_mut(&token) else {
            return;
        };
        // a write-side failure already dropped the conn in flush_ready;
        // here we reconcile the read side and interest
        if peer_closed {
            // the peer sent EOF: nothing more will be parsed, but replies
            // already admitted still get written (half-close support)
            reg.conn.close_when_done = true;
        }
        if reg.conn.close_when_done && reg.conn.is_drained() {
            self.drop_conn(token);
            return;
        }
        self.update_interest(token);
    }

    /// Extracts complete frames and dispatches them until the buffer runs
    /// dry or the connection's in-flight cap applies backpressure.
    fn parse_frames(&mut self, token: u64, now_ns: u64) {
        loop {
            let Some(reg) = self.conns.get_mut(&token) else {
                return;
            };
            if reg.conn.close_when_done
                || self.draining
                || reg.conn.pending.len() >= self.cfg.max_inflight_per_conn.max(1)
            {
                return;
            }
            match reg.conn.next_frame() {
                Ok(None) => return,
                Ok(Some(body)) => self.dispatch_frame(token, &body, now_ns),
                Err(e) => {
                    // framing is unrecoverable: answer once, then close
                    pv_obs::counter_add("serve/bad_frames", 1.0);
                    let seq = reg.conn.claim_slot(ReplyKind::Infer, now_ns);
                    reg.conn
                        .fulfill(seq, Response::failure(Status::BadRequest, e.to_string()));
                    reg.conn.close_when_done = true;
                    return;
                }
            }
        }
    }

    /// Routes one complete frame body to the inference or control path.
    fn dispatch_frame(&mut self, token: u64, body: &[u8], now_ns: u64) {
        match frame_kind(body) {
            Ok(0) => self.on_request(token, body, now_ns),
            Ok(2) => self.on_control(token, body, now_ns),
            Ok(kind) => {
                let Some(reg) = self.conns.get_mut(&token) else {
                    return;
                };
                pv_obs::counter_add("serve/bad_frames", 1.0);
                let seq = reg.conn.claim_slot(ReplyKind::Infer, now_ns);
                reg.conn.fulfill(
                    seq,
                    Response::failure(
                        Status::BadRequest,
                        format!("unexpected frame kind {kind} from a client"),
                    ),
                );
                reg.conn.close_when_done = true;
            }
            Err(e) => {
                let Some(reg) = self.conns.get_mut(&token) else {
                    return;
                };
                pv_obs::counter_add("serve/bad_frames", 1.0);
                let seq = reg.conn.claim_slot(ReplyKind::Infer, now_ns);
                reg.conn
                    .fulfill(seq, Response::failure(Status::BadRequest, e.to_string()));
                reg.conn.close_when_done = true;
            }
        }
    }

    /// Admission for one inference request: decode, validate model id and
    /// payload shape against the current registry snapshot, then enqueue
    /// — or answer the typed rejection immediately. Every path claims the
    /// connection's next in-order reply slot first, so pipelined clients
    /// always see answers in request order.
    fn on_request(&mut self, token: u64, body: &[u8], now_ns: u64) {
        let completions = Arc::clone(&self.completions);
        let snapshot = self.registry.snapshot();
        let Some(reg) = self.conns.get_mut(&token) else {
            return;
        };
        let seq = reg.conn.claim_slot(ReplyKind::Infer, now_ns);
        let req = match decode_request(body) {
            Ok(req) => req,
            Err(e) => {
                // the frame was structurally sound but its payload was
                // not: reject and close (mid-stream corruption)
                pv_obs::counter_add("serve/bad_frames", 1.0);
                reg.conn
                    .fulfill(seq, Response::failure(Status::BadRequest, e.to_string()));
                reg.conn.close_when_done = true;
                return;
            }
        };
        let reject = match snapshot.input_shape(&req.model) {
            None => Some(Response::failure(
                Status::UnknownModel,
                format!("model '{}' is not registered", req.model),
            )),
            Some(shape) if shape != req.input.shape() => Some(Response::failure(
                Status::BadRequest,
                format!(
                    "payload shape {:?} does not match model input {shape:?}",
                    req.input.shape()
                ),
            )),
            Some(_) => None,
        };
        if let Some(resp) = reject {
            reg.conn.fulfill(seq, resp);
            return;
        }
        let job = Job {
            model: req.model,
            input: req.input,
            reply: Reply {
                conn: token,
                seq,
                completions,
            },
        };
        match self.queue.push(job) {
            Ok(()) => pv_obs::counter_add("serve/accepted", 1.0),
            Err(_job) => {
                pv_obs::counter_add("serve/rejected", 1.0);
                reg.conn
                    .fulfill(seq, Response::failure(Status::Busy, "admission queue full"));
            }
        }
    }

    /// Handles one control frame: drain requests flip the lifecycle flag
    /// (the reply flushes before the connection closes); reloads run on a
    /// one-shot side thread so checkpoint loading never stalls the event
    /// loop, delivering their verdict through the completion queue like
    /// any worker.
    fn on_control(&mut self, token: u64, body: &[u8], now_ns: u64) {
        pv_obs::counter_add("serve/control", 1.0);
        let reload_handler = self.cfg.reload.clone();
        let registry = Arc::clone(&self.registry);
        let lifecycle = Arc::clone(&self.lifecycle);
        let completions = Arc::clone(&self.completions);
        let Some(reg) = self.conns.get_mut(&token) else {
            return;
        };
        let seq = reg.conn.claim_slot(ReplyKind::Control, now_ns);
        let ctl = match decode_control_request(body) {
            Ok(ctl) => ctl,
            Err(e) => {
                pv_obs::counter_add("serve/bad_frames", 1.0);
                reg.conn
                    .fulfill(seq, Response::failure(Status::BadRequest, e.to_string()));
                reg.conn.close_when_done = true;
                return;
            }
        };
        if !self.cfg.allow_control {
            reg.conn.fulfill(
                seq,
                Response::failure(Status::BadRequest, "control operations are disabled"),
            );
            return;
        }
        match ctl.op {
            ControlOp::Drain => {
                // acknowledge first; the reply flushes before begin_drain
                // marks this connection close_when_done
                reg.conn.fulfill(
                    seq,
                    control_ok("draining: listener closed, in-flight finishing"),
                );
                self.lifecycle.drain.store(true, Ordering::SeqCst);
            }
            ControlOp::Reload => {
                let Some(handler) = reload_handler else {
                    reg.conn.fulfill(
                        seq,
                        Response::failure(Status::BadRequest, "no reload handler configured"),
                    );
                    return;
                };
                if lifecycle.reload_busy.swap(true, Ordering::SeqCst) {
                    reg.conn.fulfill(
                        seq,
                        Response::failure(Status::Busy, "a reload is already in progress"),
                    );
                    return;
                }
                let arg = ctl.arg;
                // the thread detaches: its only effects are the registry
                // swap and one completion, both safe after reactor exit
                drop(pool::spawn("reload", move || {
                    let resp = match run_reload(&handler, &registry, &arg) {
                        Ok(generation) => {
                            control_ok(format!("reloaded to generation {generation}"))
                        }
                        Err(e) => {
                            pv_obs::counter_add("serve/reload_failed", 1.0);
                            Response::failure(Status::Internal, e.to_string())
                        }
                    };
                    lifecycle.reload_busy.store(false, Ordering::SeqCst);
                    completions.deliver(token, seq, resp);
                }));
            }
        }
    }

    /// Encodes fulfilled reply slots in order, queues their frames, and
    /// pushes bytes to the socket. Drops the connection on a dead
    /// transport.
    fn flush_ready(&mut self, token: u64, now_ns: u64) {
        let Some(reg) = self.conns.get_mut(&token) else {
            return;
        };
        for slot in reg.conn.take_ready() {
            let frame = encode_reply(&slot);
            pv_obs::histogram_ns("serve/request_ns", now_ns.saturating_sub(slot.accepted_ns));
            reg.conn.queue_frame(&frame);
        }
        match reg.conn.flush(now_ns) {
            Ok(WriteState::PeerClosed) => self.drop_conn(token),
            Ok(WriteState::Flushed | WriteState::Blocked) | Err(_) => {}
        }
    }

    /// Reconciles the connection's epoll interest with its state: reads
    /// pause under the in-flight cap or during drain (level-triggered
    /// epoll keeps the data queued in the kernel — TCP backpressure does
    /// the rest), and write interest is armed only while bytes wait.
    fn update_interest(&mut self, token: u64) {
        let max_inflight = self.cfg.max_inflight_per_conn.max(1);
        let draining = self.draining;
        let Some(reg) = self.conns.get_mut(&token) else {
            return;
        };
        let desired = Interest {
            readable: !reg.conn.close_when_done
                && !draining
                && reg.conn.pending.len() < max_inflight,
            writable: reg.conn.wants_write(),
        };
        reg.conn.reading_paused = !desired.readable;
        if desired != reg.interest {
            if self.poll.modify(reg.conn.fd(), token, desired).is_ok() {
                reg.interest = desired;
            } else {
                pv_obs::counter_add("serve/reactor_errors", 1.0);
            }
        }
    }

    /// Closes and forgets one connection (dropping the stream closes the
    /// fd, which detaches it from epoll).
    fn drop_conn(&mut self, token: u64) {
        if self.conns.remove(&token).is_some() {
            pv_obs::gauge_set("serve/connections", self.conns.len() as f64);
        }
    }

    /// Enters drain mode: close the listener (new connects are refused by
    /// the kernel), stop parsing on every connection, and let admitted
    /// work finish. Connections close as their reply ledgers empty.
    fn begin_drain(&mut self) {
        if self.draining {
            return;
        }
        let _span = pv_obs::span("serve", "drain_begin");
        self.draining = true;
        self.drain_started_ns = self.clock.now_ns();
        pv_obs::counter_add("serve/drains", 1.0);
        if let Some(listener) = self.listener.take() {
            let _ = self.poll.delete(listener.as_raw_fd());
            drop(listener);
        }
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(reg) = self.conns.get_mut(&token) {
                reg.conn.close_when_done = true;
            }
            // flush anything ready and close connections with nothing owed
            self.service_conn(token, false, false);
        }
    }

    /// Periodic bookkeeping on the injected clock: slow-loris / idle
    /// eviction, and the drain deadline for peers that never read their
    /// answers.
    fn sweep(&mut self) {
        let now_ns = self.clock.now_ns();
        let idle_limit_ns = duration_ns(self.cfg.idle_timeout);
        if idle_limit_ns > 0 && !self.draining {
            let idle: Vec<u64> = self
                .conns
                .iter()
                .filter(|(_, reg)| {
                    reg.conn.pending.is_empty()
                        && !reg.conn.wants_write()
                        && reg.conn.idle_ns(now_ns) > idle_limit_ns
                })
                .map(|(&t, _)| t)
                .collect();
            for token in idle {
                pv_obs::counter_add("serve/idle_evicted", 1.0);
                self.drop_conn(token);
            }
        }
        if self.draining && !self.conns.is_empty() {
            let deadline_ns = duration_ns(self.cfg.drain_deadline);
            if now_ns.saturating_sub(self.drain_started_ns) > deadline_ns {
                // peers that never drained their answers: close anyway —
                // the drain must terminate
                let stuck: Vec<u64> = self.conns.keys().copied().collect();
                pv_obs::counter_add("serve/drain_forced", stuck.len() as f64);
                for token in stuck {
                    self.drop_conn(token);
                }
            }
        }
    }
}

/// An `Ok` response whose message rides a control frame (inference `Ok`s
/// require logits; control `Ok`s carry text).
fn control_ok(message: impl Into<String>) -> Response {
    Response {
        status: Status::Ok,
        batch_size: 0,
        output: None,
        message: message.into(),
    }
}

/// Encodes one fulfilled reply slot with the encoder its kind demands,
/// degrading to an `Internal` failure frame when the response itself
/// cannot be represented on the wire — an unencodable response costs the
/// peer one failed request, never the connection.
fn encode_reply(slot: &Pending) -> Vec<u8> {
    let resp = match &slot.resp {
        Some(resp) => resp,
        None => return Vec::new(), // take_ready only yields fulfilled slots
    };
    let encoded = match slot.kind {
        ReplyKind::Infer => encode_response(resp),
        ReplyKind::Control => encode_control_response(&ControlResponse {
            status: resp.status,
            message: resp.message.clone(),
        }),
    };
    encoded.unwrap_or_else(|e| {
        pv_obs::counter_add("serve/encode_failed", 1.0);
        let fallback = Response::failure(
            Status::Internal,
            format!("response could not be encoded: {e}"),
        );
        let second = match slot.kind {
            ReplyKind::Infer => encode_response(&fallback),
            ReplyKind::Control => encode_control_response(&ControlResponse {
                status: Status::Internal,
                message: fallback.message,
            }),
        };
        second.unwrap_or_default()
    })
}

/// Best-effort `Busy` frame to a connection rejected at the cap: the
/// socket is fresh, so a single nonblocking write of a ~40-byte frame
/// either lands in the empty send buffer or the peer is gone — both fine.
fn reject_busy(stream: TcpStream) {
    let mut stream = stream;
    let _ = stream.set_nonblocking(true);
    if let Ok(frame) = encode_response(&Response::failure(Status::Busy, "connection cap reached")) {
        let _ = stream.write(&frame);
    }
}

fn duration_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

// The reactor's integration behaviour (fragmentation, pipelining,
// slow-loris eviction, drain, reload) is exercised end-to-end in
// `tests/serve_reactor.rs`; unit tests here would need a live server
// anyway, so the torture suite is the canonical coverage.
