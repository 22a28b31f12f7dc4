//! # pv-serve
//!
//! A zero-dependency batched inference server for the `pruneval`
//! workspace (a Rust reproduction of *Lost in Pruning*, Liebenwein et
//! al., MLSys 2021).
//!
//! The paper's warning is about deployment: pruned networks match their
//! parents on the nominal test set but diverge under distribution shift.
//! This crate supplies the deployment half of that sentence — the path
//! from a pruned PVCK checkpoint to an answered request — so families of
//! pruned networks can be exercised as a live inference workload:
//!
//! * [`ModelRegistry`] — named, shape-validated networks admitted from
//!   fresh builds or PVCK checkpoints; the server keeps it as an
//!   atomically swappable, generation-counted snapshot for hot reload,
//!   whose networks every worker borrows;
//! * [`protocol`] — PVSR/v1, a length-prefixed binary request/response
//!   format with magic, version, and CRC-32 integrity (the wire sibling
//!   of the PVCK file format), plus `reload` / `drain` control frames;
//! * [`batcher`] — a bounded job queue with deadline-driven micro-batching
//!   and explicit `Busy` backpressure;
//! * [`reactor`] — a single epoll event-loop thread that owns every
//!   socket: nonblocking accept, readiness-driven frame reassembly
//!   (per-connection state machines in `conn`), idle/slow-loris
//!   eviction, graceful drain, and in-order reply delivery for
//!   thousands of concurrent connections;
//! * [`server`] — configuration, the worker pool behind the reactor, and
//!   the [`ServerHandle`] (drain / wait / reload);
//! * [`client`] — a blocking client plus the [`loadgen`] harness with
//!   closed- and open-loop arrival modes ([`ArrivalMode`]) that measures
//!   throughput, latency percentiles, and mean batch size.
//!
//! Time is injected (`pv_obs::Clock`), threads are created only through
//! the audited `pool` seam, numeric work runs on the pv-par kernels
//! (bitwise identical for any `PV_NUM_THREADS`), and every fallible path
//! reports the workspace-wide [`pv_tensor::Error`]. The only `unsafe` in
//! the crate is the audited epoll FFI in `sys` (see `DESIGN.md` §16);
//! everything else is `#[deny(unsafe_code)]`-clean.
//!
//! Operational guidance — metrics, tuning, drain and reload runbooks —
//! lives in `OPERATIONS.md` at the workspace root.
//!
//! # Example
//!
//! ```
//! use pv_serve::{serve, loadgen, Client, LoadgenConfig, ModelRegistry, ServerConfig};
//! use pv_nn::models;
//! use pv_obs::MonotonicClock;
//! use pv_tensor::Tensor;
//! use std::sync::Arc;
//!
//! let mut registry = ModelRegistry::new();
//! registry.insert("parent", models::mlp("demo", 8, &[16], 3, false, 0)).unwrap();
//! let clock = Arc::new(MonotonicClock::new());
//! let mut handle = serve(registry, ServerConfig::default(), clock).unwrap();
//!
//! let mut client = Client::connect(&handle.addr().to_string(),
//!                                  std::time::Duration::from_secs(5)).unwrap();
//! let logits = client.infer("parent", &Tensor::zeros(&[8])).unwrap();
//! assert_eq!(logits.shape(), &[3]);
//! handle.shutdown();
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod batcher;
pub mod client;
mod conn;
mod pool;
pub mod protocol;
pub mod reactor;
pub mod registry;
pub mod server;
#[allow(unsafe_code)] // the one audited FFI seam: raw epoll syscalls
mod sys;

pub use batcher::BatchConfig;
pub use client::{loadgen, ArrivalMode, Client, LoadgenConfig, LoadgenReport};
pub use protocol::{
    ControlOp, ControlRequest, ControlResponse, Request, Response, Status, MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
};
pub use registry::ModelRegistry;
pub use server::{serve, ReloadFn, ServerConfig, ServerHandle};
