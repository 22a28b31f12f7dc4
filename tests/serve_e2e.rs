//! End-to-end serving tests: a real `pv-serve` server on a loopback
//! socket, driven by real TCP clients. These cover the contracts the
//! serving layer advertises in `ARCHITECTURE.md`:
//!
//! * a served response is bitwise identical to a direct in-process
//!   forward pass, regardless of `PV_NUM_THREADS` or how requests were
//!   coalesced into batches;
//! * admission errors (`UnknownModel`, shape mismatches) are answered as
//!   typed statuses without touching a worker;
//! * a full admission queue answers `Busy` instead of queueing unboundedly;
//! * a worker panic (from a model whose layer panics in `forward`) fails
//!   only its own batch — the server keeps answering afterwards;
//! * the loadgen harness measures a healthy server as all-`Ok`.

use pv_nn::{models, Layer, Mode, Network, Param, PrunableLayer, Sequential, ShapeReport};
use pv_serve::{
    loadgen, serve, BatchConfig, Client, LoadgenConfig, ModelRegistry, ServerConfig, Status,
};
use pv_tensor::par::set_thread_override;
use pv_tensor::{Error, Rng, Tensor};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Thread-override tests must not interleave (the override is global).
static THREAD_LOCK: Mutex<()> = Mutex::new(());

const IN_DIM: usize = 12;
const CLASSES: usize = 4;

fn registry() -> ModelRegistry {
    let mut reg = ModelRegistry::new();
    reg.insert(
        "parent",
        models::mlp("parent", IN_DIM, &[24, 16], CLASSES, false, 11),
    )
    .expect("parent admits");
    reg.insert(
        "pruned",
        models::mlp("pruned", IN_DIM, &[24, 16], CLASSES, false, 47),
    )
    .expect("pruned admits");
    reg
}

fn sample(seed: u64) -> Tensor {
    let mut rng = Rng::new(seed);
    Tensor::rand_uniform(&[IN_DIM], -1.0, 1.0, &mut rng)
}

fn quick_server(cfg: ServerConfig) -> pv_serve::ServerHandle {
    serve(registry(), cfg, Arc::new(pv_obs::MonotonicClock::new())).expect("server starts")
}

#[test]
fn served_logits_match_direct_forward_bitwise() {
    let mut handle = quick_server(ServerConfig::default());
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr, Duration::from_secs(10)).expect("connect");

    let reference = registry();
    for seed in 0..6u64 {
        let x = sample(seed);
        for model in ["parent", "pruned"] {
            let served = client.infer(model, &x).expect("served logits");
            let direct = reference
                .get(model)
                .cloned()
                .expect("model registered")
                .forward(&x.clone().reshape(&[1, IN_DIM]), Mode::Eval)
                .reshape(&[CLASSES]);
            assert_eq!(served.shape(), direct.shape());
            let served_bits: Vec<u32> = served.data().iter().map(|v| v.to_bits()).collect();
            let direct_bits: Vec<u32> = direct.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(served_bits, direct_bits, "seed {seed} model {model}");
        }
    }
    handle.shutdown();
}

#[test]
fn responses_are_invariant_to_thread_count_and_batching() {
    let _guard = THREAD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let inputs: Vec<Tensor> = (0..8).map(|s| sample(100 + s)).collect();

    let mut runs: Vec<Vec<Vec<u32>>> = Vec::new();
    for (threads, max_batch) in [(1, 1), (4, 8)] {
        set_thread_override(Some(threads));
        let mut handle = quick_server(ServerConfig {
            batch: BatchConfig {
                max_batch,
                batch_deadline: Duration::from_millis(2),
                queue_capacity: 64,
            },
            ..ServerConfig::default()
        });
        let addr = handle.addr().to_string();
        let mut client = Client::connect(&addr, Duration::from_secs(10)).expect("connect");
        let mut bits = Vec::new();
        for x in &inputs {
            let out = client.infer("parent", x).expect("logits");
            bits.push(out.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>());
        }
        runs.push(bits);
        handle.shutdown();
        set_thread_override(None);
    }
    assert_eq!(
        runs[0], runs[1],
        "served logits must be bitwise identical across thread counts and batch shapes"
    );
}

#[test]
fn unknown_model_and_bad_shape_are_typed_rejections() {
    let mut handle = quick_server(ServerConfig::default());
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr, Duration::from_secs(10)).expect("connect");

    let resp = client
        .request("nonexistent", &sample(1))
        .expect("transport fine");
    assert_eq!(resp.status, Status::UnknownModel);

    let resp = client
        .request("parent", &Tensor::zeros(&[IN_DIM + 1]))
        .expect("transport fine");
    assert_eq!(resp.status, Status::BadRequest);
    assert!(resp.message.contains("shape"), "{}", resp.message);

    // the connection survives both rejections
    assert_eq!(
        client
            .infer("parent", &sample(2))
            .expect("still serving")
            .shape(),
        &[CLASSES]
    );
    handle.shutdown();
}

/// A layer that passes shape inference but panics in `forward`, so a
/// model built from it drives the worker into its fault boundary.
#[derive(Clone)]
struct PanickingLayer;

impl Layer for PanickingLayer {
    fn forward(&mut self, _x: &Tensor, _mode: Mode) -> Tensor {
        panic!("injected fault in forward");
    }

    fn backward(&mut self, _grad_out: &Tensor) -> Tensor {
        unreachable!("serving never runs backward");
    }

    fn infer_shape(&self, input: &[usize], report: &mut ShapeReport) -> Result<Vec<usize>, Error> {
        let out = vec![CLASSES];
        report.push(self.describe(), input, &out);
        Ok(out)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn visit_prunable(&mut self, _f: &mut dyn FnMut(&mut dyn PrunableLayer)) {}

    fn flops_per_sample(&self) -> u64 {
        0
    }

    fn describe(&self) -> String {
        "panicking".to_string()
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[test]
fn injected_worker_fault_fails_only_its_batch() {
    let mut reg = registry();
    let mut root = Sequential::new();
    root.push(Box::new(PanickingLayer));
    reg.insert(
        "faulty",
        Network::new("faulty", root, vec![IN_DIM], CLASSES),
    )
    .expect("faulty admits: its shapes check out");
    let mut handle = serve(
        reg,
        ServerConfig::default(),
        Arc::new(pv_obs::MonotonicClock::new()),
    )
    .expect("server starts");
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr, Duration::from_secs(10)).expect("connect");

    // request to the faulty model: its worker panics, the fault boundary
    // converts that into an Internal response
    let resp = client
        .request("faulty", &sample(3))
        .expect("transport fine");
    assert_eq!(resp.status, Status::Internal);

    // the pool keeps serving other models afterwards — repeatedly
    for seed in 0..4u64 {
        let out = client
            .infer("parent", &sample(seed))
            .expect("server survived the fault");
        assert_eq!(out.shape(), &[CLASSES]);
    }
    handle.shutdown();
}

#[test]
fn full_queue_answers_busy_not_hang() {
    // no workers draining fast enough: one worker, capacity 1, and a
    // deliberately slow drain via a long batch deadline on an idle model
    let mut handle = quick_server(ServerConfig {
        workers: 1,
        batch: BatchConfig {
            max_batch: 4,
            batch_deadline: Duration::from_millis(200),
            queue_capacity: 1,
        },
        ..ServerConfig::default()
    });
    let addr = handle.addr().to_string();

    // saturate: fire requests from several connections without waiting
    // for each other; at least one must bounce with Busy, none may hang
    let statuses: Arc<Mutex<Vec<Status>>> = Arc::new(Mutex::new(Vec::new()));
    let mut joins = Vec::new();
    for seed in 0..6u64 {
        let addr = addr.clone();
        let statuses = Arc::clone(&statuses);
        joins.push(std::thread::spawn(move || {
            let mut client = Client::connect(&addr, Duration::from_secs(10)).expect("connect");
            let resp = client
                .request("parent", &sample(seed))
                .expect("transport fine");
            statuses
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(resp.status);
        }));
    }
    for j in joins {
        j.join().expect("lane finishes");
    }
    let statuses = statuses.lock().unwrap_or_else(|e| e.into_inner());
    assert_eq!(statuses.len(), 6, "every request got an answer");
    assert!(
        statuses
            .iter()
            .all(|s| matches!(s, Status::Ok | Status::Busy)),
        "only Ok/Busy under saturation, got {statuses:?}"
    );
    handle.shutdown();
}

#[test]
fn loadgen_measures_a_healthy_server_as_all_ok() {
    let mut handle = quick_server(ServerConfig {
        batch: BatchConfig {
            max_batch: 8,
            batch_deadline: Duration::from_millis(1),
            queue_capacity: 256,
        },
        ..ServerConfig::default()
    });
    let addr = handle.addr().to_string();
    let inputs: Vec<Tensor> = (0..4).map(|s| sample(200 + s)).collect();
    let report = loadgen(
        &addr,
        &inputs,
        &LoadgenConfig {
            concurrency: 4,
            requests: 48,
            model: "parent".into(),
            ..LoadgenConfig::default()
        },
        Arc::new(pv_obs::MonotonicClock::new()),
    )
    .expect("loadgen runs");
    assert_eq!(report.requests, 48);
    assert_eq!(
        report.ok, 48,
        "healthy server answers everything: {report:?}"
    );
    assert_eq!(report.failed, 0);
    assert!(report.mean_batch >= 1.0);
    assert!(report.throughput_rps() > 0.0);
    handle.shutdown();
}

#[test]
fn shutdown_is_idempotent_and_rejects_new_work() {
    let mut handle = quick_server(ServerConfig::default());
    let addr = handle.addr().to_string();
    handle.shutdown();
    handle.shutdown(); // second call is a no-op

    // after shutdown the port no longer answers PVSR
    let outcome = Client::connect(&addr, Duration::from_millis(500))
        .and_then(|mut c| c.request("parent", &sample(9)));
    assert!(outcome.is_err(), "stopped server must not answer");
}
