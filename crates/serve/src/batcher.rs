//! Deadline-driven micro-batching: the bounded job queue that coalesces
//! single-sample requests into forward-pass batches.
//!
//! The reactor pushes one job per request; a worker taking its next batch
//! blocks until a job arrives, then keeps the *leader*'s model and gathers
//! more jobs for the same model until either `max_batch` is reached or the
//! batching deadline expires. The deadline is measured on the injected
//! [`Clock`] (the workspace's one sanctioned time seam), so the batcher
//! itself never reads a wall clock.
//!
//! Backpressure is explicit: the queue is bounded, and a push against a
//! full queue fails immediately — the caller answers `Busy` instead of
//! letting connections pile up behind an unbounded buffer.

use crate::protocol::Response;
use crate::reactor::CompletionQueue;
use pv_obs::Clock;
use pv_tensor::Tensor;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Where a worker delivers a finished response: connection `conn`'s reply
/// slot `seq`, through the reactor's completion queue (which wakes the
/// event loop). Delivery never blocks the worker.
pub(crate) struct Reply {
    /// Token of the connection awaiting this response.
    pub(crate) conn: u64,
    /// The connection's sequence number for the pending reply slot.
    pub(crate) seq: u64,
    /// The owning reactor's completion queue.
    pub(crate) completions: Arc<CompletionQueue>,
}

impl Reply {
    /// Queues the response for the reactor.
    pub(crate) fn deliver(&self, resp: Response) {
        self.completions.deliver(self.conn, self.seq, resp);
    }
}

/// One queued request: the model to run, the single-sample input, and the
/// destination the answer goes to.
pub(crate) struct Job {
    /// Registry id of the requested model.
    pub(crate) model: String,
    /// Per-sample input tensor (no batch axis).
    pub(crate) input: Tensor,
    /// Where the worker delivers the response.
    pub(crate) reply: Reply,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Job({} {:?})", self.model, self.input.shape())
    }
}

/// Micro-batching parameters.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Largest forward-pass batch a worker will assemble.
    pub max_batch: usize,
    /// How long a worker holding a non-full batch waits for more
    /// same-model jobs before executing (0 disables coalescing waits).
    pub batch_deadline: Duration,
    /// Bound on queued jobs; pushes beyond it are rejected (`Busy`).
    pub queue_capacity: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            max_batch: 8,
            batch_deadline: Duration::from_micros(200),
            queue_capacity: 256,
        }
    }
}

struct QueueState {
    jobs: VecDeque<Job>,
    stopping: bool,
}

/// The bounded, condvar-signalled job queue shared by the reactor and the
/// workers (see module docs).
pub(crate) struct JobQueue {
    state: Mutex<QueueState>,
    nonempty: Condvar,
    capacity: usize,
}

/// Recovers a poisoned lock: a worker panic is already contained by the
/// server's catch-unwind fault boundary, and every queue invariant is
/// re-checked under the lock, so continuing with the inner guard is safe
/// and keeps the pool serving.
fn recover<T>(r: std::sync::LockResult<MutexGuard<'_, T>>) -> MutexGuard<'_, T> {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl JobQueue {
    /// An empty queue admitting at most `capacity` jobs.
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                stopping: false,
            }),
            nonempty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues a job, or returns it to the caller when the queue is full
    /// or the server is stopping (the caller answers `Busy`).
    pub(crate) fn push(&self, job: Job) -> Result<(), Job> {
        let mut st = recover(self.state.lock());
        if st.stopping || st.jobs.len() >= self.capacity {
            return Err(job);
        }
        st.jobs.push_back(job);
        pv_obs::gauge_set("serve/queue_depth", st.jobs.len() as f64);
        self.nonempty.notify_one();
        Ok(())
    }

    /// Blocks for the next batch: one leader job plus up to
    /// `cfg.max_batch - 1` more jobs for the same model, gathered until
    /// the deadline measured on `clock` expires. Returns `None` once the
    /// queue is stopped *and* drained.
    pub(crate) fn next_batch(&self, clock: &dyn Clock, cfg: &BatchConfig) -> Option<Vec<Job>> {
        let max_batch = cfg.max_batch.max(1);
        let mut st = recover(self.state.lock());
        loop {
            if let Some(leader) = st.jobs.pop_front() {
                let mut batch = vec![leader];
                take_matching(&mut st, &mut batch, max_batch);
                // hold the (refilling) queue open until the deadline in
                // the hope of a fuller batch
                let deadline_ns = clock
                    .now_ns()
                    .saturating_add(cfg.batch_deadline.as_nanos() as u64);
                while batch.len() < max_batch && !st.stopping {
                    let now = clock.now_ns();
                    if now >= deadline_ns {
                        break;
                    }
                    let wait = Duration::from_nanos(deadline_ns - now);
                    let (guard, _timeout) = self
                        .nonempty
                        .wait_timeout(st, wait)
                        .unwrap_or_else(|e| e.into_inner());
                    st = guard;
                    take_matching(&mut st, &mut batch, max_batch);
                }
                pv_obs::gauge_set("serve/queue_depth", st.jobs.len() as f64);
                if !st.jobs.is_empty() {
                    // leftovers (other models / overflow) belong to another worker
                    self.nonempty.notify_one();
                }
                return Some(batch);
            }
            if st.stopping {
                return None;
            }
            st = recover(self.nonempty.wait(st));
        }
    }

    /// Marks the queue as stopping and wakes every waiter. Queued jobs
    /// still drain; new pushes are rejected.
    pub(crate) fn stop(&self) {
        recover(self.state.lock()).stopping = true;
        self.nonempty.notify_all();
    }
}

/// Moves queued jobs for the leader's model into `batch` (preserving the
/// relative order of everything else) until `batch` holds `max` jobs.
fn take_matching(st: &mut QueueState, batch: &mut Vec<Job>, max: usize) {
    // pv-analyze: allow(lib-panic) -- take_matching is only called with a non-empty batch (the leader)
    let model = batch.first().expect("batch has a leader").model.clone();
    let mut i = 0;
    while i < st.jobs.len() && batch.len() < max {
        if st.jobs[i].model == model {
            if let Some(job) = st.jobs.remove(i) {
                batch.push(job);
            }
        } else {
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_obs::FakeClock;
    use std::os::unix::net::UnixStream;

    /// A job for `model`. These tests never answer their jobs, so each
    /// reply points at a completion queue nobody reads.
    fn job(model: &str) -> Job {
        let (waker, _) = UnixStream::pair().expect("socketpair");
        Job {
            model: model.into(),
            input: Tensor::zeros(&[2]),
            reply: Reply {
                conn: 0,
                seq: 0,
                completions: Arc::new(CompletionQueue::new(waker)),
            },
        }
    }

    #[test]
    fn push_respects_capacity() {
        let q = JobQueue::new(2);
        assert!(q.push(job("m")).is_ok());
        assert!(q.push(job("m")).is_ok());
        assert!(q.push(job("m")).is_err(), "third push must bounce");
        assert_eq!(recover(q.state.lock()).jobs.len(), 2);
    }

    #[test]
    fn batch_groups_by_leader_model() {
        let q = JobQueue::new(16);
        for m in ["a", "b", "a", "a", "b"] {
            q.push(job(m)).expect("fits");
        }
        let clock = FakeClock::new(); // deadline expires immediately
        let cfg = BatchConfig {
            max_batch: 8,
            batch_deadline: Duration::ZERO,
            queue_capacity: 16,
        };
        let batch = q.next_batch(&clock, &cfg).expect("batch");
        assert_eq!(
            batch.iter().map(|j| j.model.as_str()).collect::<Vec<_>>(),
            vec!["a", "a", "a"]
        );
        let batch = q.next_batch(&clock, &cfg).expect("batch");
        assert_eq!(
            batch.iter().map(|j| j.model.as_str()).collect::<Vec<_>>(),
            vec!["b", "b"]
        );
    }

    #[test]
    fn max_batch_caps_the_gather() {
        let q = JobQueue::new(16);
        for _ in 0..5 {
            q.push(job("m")).expect("fits");
        }
        let cfg = BatchConfig {
            max_batch: 2,
            batch_deadline: Duration::ZERO,
            queue_capacity: 16,
        };
        let clock = FakeClock::new();
        assert_eq!(q.next_batch(&clock, &cfg).expect("batch").len(), 2);
        assert_eq!(q.next_batch(&clock, &cfg).expect("batch").len(), 2);
        assert_eq!(q.next_batch(&clock, &cfg).expect("batch").len(), 1);
    }

    #[test]
    fn stop_drains_then_ends() {
        let q = JobQueue::new(4);
        q.push(job("m")).expect("fits");
        q.stop();
        assert!(q.push(job("m")).is_err(), "no pushes after stop");
        let cfg = BatchConfig::default();
        let clock = FakeClock::new();
        assert!(q.next_batch(&clock, &cfg).is_some(), "queued job drains");
        assert!(q.next_batch(&clock, &cfg).is_none(), "then the queue ends");
    }
}
