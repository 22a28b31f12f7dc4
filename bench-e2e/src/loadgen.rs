//! The load generator: one TCP connection driven by two threads.
//!
//! A writer thread sends pre-encoded request frames, pipelined; the reader
//! on the calling thread reads the replies. The server answers a
//! connection's requests in order, so the k-th reply read belongs to the
//! k-th request written: the writer hands each request's timestamps to the
//! reader over a channel *before* writing its frame, and the reader pairs
//! them with the next reply.
//!
//! Two pacings ([`Pace`]): a closed loop that keeps a fixed window of
//! requests in flight (the capacity probe), and an open loop that sends on
//! a fixed timetable whatever the server does. Open-loop latency is timed
//! from when a request was *due*, so a stall is charged to every request
//! it delayed, and the writer's own lateness is recorded separately.

use pv_serve::protocol::{decode_response, read_frame};
use pv_serve::Status;
use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The open-loop writer sleeps until this long before a request is due and
/// yields the CPU in a loop for the rest: a sleep alone overshoots by the
/// kernel's timer slack (about 50 µs), a tenth of the family's latency.
const SPIN_NS: u64 = 200_000;

/// How a phase paces its requests.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Closed loop: keep `in_flight` requests outstanding until `duration`
    /// has passed, then collect the stragglers.
    Window {
        /// Requests kept in flight.
        in_flight: usize,
        /// How long new requests are sent.
        duration: Duration,
    },
    /// Open loop: `count` requests due at `per_sec`, independent of replies.
    Rate {
        /// Arrival rate, requests per second.
        per_sec: f64,
        /// Requests sent.
        count: usize,
    },
}

/// What the reader made of a reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `Ok` with the expected logits, bit for bit.
    Ok,
    /// Refused with `Busy`.
    Busy,
    /// Any other status.
    Failed,
    /// `Ok`, but the logits differ from the offline reference.
    Wrong,
}

/// One request's timeline, in nanoseconds on the phase's clock.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the request was due: its scheduled time in an open loop, its
    /// send time in a closed one.
    pub due_ns: u64,
    /// When the writer sent it.
    pub sent_ns: u64,
    /// When the reader had its reply.
    pub done_ns: u64,
    /// Server batch size the reply reports (0 unless served).
    pub batch: u32,
    /// Outcome.
    pub verdict: Verdict,
}

/// One phase's samples, in request order.
#[derive(Debug, Default)]
pub struct Phase {
    /// Every request sent.
    pub samples: Vec<Sample>,
    /// Wall time from the first send to the last reply, ns.
    pub elapsed_ns: u64,
}

impl Phase {
    /// Requests answered `Ok` with the expected logits, per second.
    pub fn ok_per_sec(&self) -> f64 {
        let ok = self.count(Verdict::Ok);
        ok as f64 / (self.elapsed_ns.max(1) as f64 / 1e9)
    }

    /// Number of samples with the given verdict.
    pub fn count(&self, v: Verdict) -> usize {
        self.samples.iter().filter(|s| s.verdict == v).count()
    }

    /// Requests that were refused, failed or answered wrongly.
    pub fn failures(&self) -> usize {
        self.samples.len() - self.count(Verdict::Ok)
    }

    /// Latency of each request from when it was due, ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| (s.done_ns - s.due_ns) as f64 / 1e6)
            .collect()
    }

    /// Latency of each request from when it was actually sent, ms.
    pub fn client_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| (s.done_ns - s.sent_ns) as f64 / 1e6)
            .collect()
    }

    /// How late the writer sent each request, ms.
    pub fn late_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| (s.sent_ns - s.due_ns) as f64 / 1e6)
            .collect()
    }
}

/// Runs one phase over `stream`. Request `k` sends `frames[frame_of(k)]`;
/// `check(frame, logits)` says whether an `Ok` reply carries the expected
/// logits for that frame.
///
/// # Errors
///
/// A transport or framing failure ends the phase with an error: the
/// benchmark cannot tell which request a lost reply belonged to.
pub fn run(
    stream: &TcpStream,
    frames: &[Vec<u8>],
    frame_of: &(dyn Fn(usize) -> usize + Sync),
    pace: Pace,
    check: &dyn Fn(usize, &[f32]) -> bool,
) -> Result<Phase, String> {
    let mut out = stream
        .try_clone()
        .map_err(|e| format!("clone the generator socket: {e}"))?;
    let mut input = stream;
    let origin = Instant::now();
    let now_ns = move || origin.elapsed().as_nanos() as u64;
    // (request index, due, sent) handed from writer to reader
    let (meta_tx, meta_rx) = mpsc::channel::<(usize, u64, u64)>();
    let (credit_tx, credit_rx) = mpsc::channel::<()>();

    std::thread::scope(|scope| {
        let writer = scope.spawn(move || -> Result<(), String> {
            let mut free = match pace {
                Pace::Window { in_flight, .. } => in_flight.max(1),
                Pace::Rate { .. } => usize::MAX,
            };
            for k in 0.. {
                let due = match pace {
                    Pace::Window { duration, .. } => {
                        if free == 0 {
                            // the reader has hung up: it reports why
                            if credit_rx.recv().is_err() {
                                return Ok(());
                            }
                            free += 1;
                        }
                        free += credit_rx.try_iter().count();
                        let now = now_ns();
                        if now >= duration.as_nanos() as u64 {
                            break;
                        }
                        now
                    }
                    Pace::Rate { per_sec, count } => {
                        if k == count {
                            break;
                        }
                        let due = (k as f64 * 1e9 / per_sec) as u64;
                        let now = now_ns();
                        if due > now + SPIN_NS {
                            std::thread::sleep(Duration::from_nanos(due - now - SPIN_NS));
                        }
                        while now_ns() < due {
                            std::thread::yield_now();
                        }
                        due
                    }
                };
                if meta_tx.send((k, due, now_ns())).is_err() {
                    return Ok(());
                }
                out.write_all(&frames[frame_of(k)])
                    .map_err(|e| format!("send request {k}: {e}"))?;
                free -= 1;
            }
            Ok(())
        });

        let mut phase = Phase::default();
        let mut first_sent = None;
        let read = (|| -> Result<(), String> {
            for (k, due_ns, sent_ns) in meta_rx {
                let body = read_frame(&mut input)
                    .map_err(|e| format!("reply {k}: {e}"))?
                    .ok_or_else(|| format!("server closed the connection before reply {k}"))?;
                let done_ns = now_ns();
                let resp = decode_response(&body).map_err(|e| format!("reply {k}: {e}"))?;
                let verdict = match (resp.status, &resp.output) {
                    (Status::Ok, Some(t)) if check(frame_of(k), t.data()) => Verdict::Ok,
                    (Status::Ok, _) => Verdict::Wrong,
                    (Status::Busy, _) => Verdict::Busy,
                    _ => Verdict::Failed,
                };
                first_sent.get_or_insert(sent_ns);
                phase.elapsed_ns = done_ns - first_sent.unwrap_or(sent_ns);
                phase.samples.push(Sample {
                    due_ns,
                    sent_ns,
                    done_ns,
                    batch: resp.batch_size,
                    verdict,
                });
                let _ = credit_tx.send(());
            }
            Ok(())
        })();
        drop(credit_tx);
        let written = writer
            .join()
            .map_err(|_| "the generator's writer thread panicked".to_string())?;
        read.and(written).map(|()| phase)
    })
}
