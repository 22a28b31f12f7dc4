//! The serving workloads: an operator serving pruned checkpoints.
//!
//! Each workload starts a one-worker server (`max_batch` 8, 500 µs batch
//! deadline) and drives it through one connection ([`crate::loadgen`]) in
//! two phases: a closed loop with 16 requests in flight, whose completion
//! rate is the capacity, then an open loop at a fixed rate, whose
//! latencies from each request's due time are the p50 and p90. Every reply
//! is compared bit for bit with an offline forward pass of the same model
//! on the same input.
//!
//! * [`Kind::Dense`]: a 256→4096→4096→10 MLP pinned to the packed backend.
//!   Nearly all the time is packed `matmul_a_bt` with at most 8 rows
//!   against 64 MiB of weights, so pack-once and shared-model changes show
//!   here.
//! * [`Kind::Sparse`]: the same MLP pruned to 95% by weight thresholding and
//!   pinned to the sparse backend, which builds CSR side-cars at admission
//!   (counted in set-up). Same requests, but the work goes to the CSR
//!   kernels: a packed-GEMM change must leave it unmoved.
//! * [`Kind::Family`]: a resnet20 family saved to a checkpoint, its five
//!   models admitted from `load_family` as `pruneval serve --family` does,
//!   requests round-robin over the five, and a hot reload every 2 s of the
//!   open phase. Forward passes are short, so the reactor, protocol and
//!   batcher costs dominate; the reloads are writes beside the reads.

use crate::layers::{self, Layers};
use crate::loadgen::{self, Pace, Phase};
use crate::stats::{mean, median, median_ms, ms_since, quantile};
use crate::{err, study, Args, Metric, Report};
use pruneval::{build_family_with, load_family, save_family, ExperimentConfig, FamilyBuildOptions};
use pv_nn::{models, Mode, Network};
use pv_prune::{PruneContext, PruneMethod, WeightThresholding};
use pv_serve::protocol::{decode_response, encode_request, encode_response, read_frame};
use pv_serve::{
    serve, BatchConfig, ModelRegistry, ReloadFn, Request, Response, ServerConfig, ServerHandle,
    Status,
};
use pv_tensor::{Backend, Rng, Tensor, PACKED, SPARSE};
use std::io::Write;
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Unpruned MLP on the packed backend.
    Dense,
    /// 95%-pruned MLP on the sparse backend.
    Sparse,
    /// Five resnet20 family members, hot-reloaded.
    Family,
}

impl Kind {
    /// Open-phase arrival rate, requests per second. Dense and sparse run
    /// at about half their capacity on a 2-core host, so batches form from
    /// short queues. The family runs lower: its requests alternate between
    /// five models, so most batches hold one request and wait out the batch
    /// deadline, and near that regime's limit the latency swings by 3× from
    /// run to run.
    fn rate(self) -> f64 {
        match self {
            Kind::Dense => 50.0,
            Kind::Sparse => 700.0,
            Kind::Family => 500.0,
        }
    }
}

/// Requests kept in flight by the capacity phase: more than the batch
/// ceiling, so batches fill from the backlog instead of the deadline.
const WINDOW: usize = 16;
/// Distinct inputs per model.
const INPUTS: usize = 16;
/// Rounds per run, each with its own set-up (see [`run`]).
const ROUNDS: usize = 3;
/// Share of `--seconds` given to the capacity phase; the open phase gets
/// the rest.
const CAPACITY_SHARE: f64 = 0.4;
/// Seconds between hot reloads in the family's open phase.
const RELOAD_EVERY_S: f64 = 2.0;
/// Prune ratio of the sparse MLP.
const SPARSITY: f64 = 0.95;
const MLP_IN: usize = 256;
const MLP_CLASSES: usize = 10;
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// The workload's networks, built (and pruned, or loaded) but not yet
/// admitted.
struct Prepared {
    /// Model ids and networks, in registry order.
    nets: Vec<(String, Network)>,
    /// Backend every model is pinned to, if any.
    backend: Option<&'static dyn Backend>,
    reload: Option<ReloadFn>,
    /// Bench-timed parts of set-up: per-layer metric name and ms.
    parts: Vec<(&'static str, f64)>,
}

/// Builds the workload's networks. `ckpt` is where the family checkpoint
/// goes.
fn prepare(kind: Kind, args: &Args, ckpt: &Path) -> Result<Prepared, String> {
    if kind == Kind::Family {
        let cfg = study::resnet20(args.seed);
        let mut family =
            build_family_with(&cfg, &WeightThresholding, &FamilyBuildOptions::default())
                .map_err(err)?;
        save_family(&mut family, ckpt).map_err(err)?;
        let t = Instant::now();
        let nets = family_members(&cfg, ckpt).map_err(err)?;
        let parts = vec![("ckpt.load_family.ms", ms_since(t))];
        let path = ckpt.to_path_buf();
        let reload: ReloadFn =
            Arc::new(move |_: &str| admit(family_members(&cfg, &path)?, None).map(|r| r.0));
        return Ok(Prepared {
            nets,
            backend: None,
            reload: Some(reload),
            parts,
        });
    }
    let hidden: &[usize] = if args.smoke {
        &[256, 256]
    } else {
        &[4096, 4096]
    };
    let mut net = models::mlp("parent", MLP_IN, hidden, MLP_CLASSES, false, args.seed);
    let mut parts = Vec::new();
    let backend: &'static dyn Backend = if kind == Kind::Sparse {
        let t = Instant::now();
        WeightThresholding.prune(&mut net, SPARSITY, &PruneContext::data_free());
        parts.push(("prune.wt.ms", ms_since(t)));
        &SPARSE
    } else {
        &PACKED
    };
    Ok(Prepared {
        nets: vec![("parent".into(), net)],
        backend: Some(backend),
        reload: None,
        parts,
    })
}

/// Loads a saved family under its family ids, as `pruneval serve --family`
/// does.
fn family_members(
    cfg: &ExperimentConfig,
    path: &Path,
) -> Result<Vec<(String, Network)>, pv_tensor::Error> {
    let family = load_family(cfg, 0, path)?;
    let mut nets = vec![
        ("parent".to_string(), family.parent),
        ("separate".to_string(), family.separate),
    ];
    for (i, pm) in family.pruned.into_iter().enumerate() {
        nets.push((format!("cycle{i:02}"), pm.network));
    }
    Ok(nets)
}

/// Admits the networks and pins their backend (pinning the sparse backend
/// builds the CSR side-cars); also returns the ms the pinning took.
fn admit(
    nets: Vec<(String, Network)>,
    backend: Option<&'static dyn Backend>,
) -> Result<(ModelRegistry, f64), pv_tensor::Error> {
    let mut registry = ModelRegistry::new();
    let ids: Vec<String> = nets.iter().map(|(id, _)| id.clone()).collect();
    for (id, net) in nets {
        registry.insert(id, net)?;
    }
    let t = Instant::now();
    if let Some(b) = backend {
        for id in &ids {
            registry.set_backend(id, b)?;
        }
    }
    Ok((registry, ms_since(t)))
}

/// The client's side of a workload: encoded requests and the logits each
/// must come back with.
struct Traffic {
    ids: Vec<String>,
    /// Per model: its inputs.
    inputs: Vec<Vec<Tensor>>,
    /// Frame `m * INPUTS + i` asks model `m` about input `i`.
    frames: Vec<Vec<u8>>,
    /// Bit patterns of the reference logits of each frame.
    expected: Vec<Vec<u32>>,
    /// Per model: parameter count.
    params: Vec<usize>,
}

impl Traffic {
    /// Inputs drawn from `seed`, and reference logits from an offline
    /// packed-backend forward pass of the networks about to be admitted:
    /// serving is batch-invariant and every backend is bitwise equal, so a
    /// served reply must match exactly.
    fn new(nets: &mut [(String, Network)], seed: u64) -> Result<Self, String> {
        let mut rng = Rng::new(seed ^ 0xE2E_5EED);
        let mut t = Traffic {
            ids: nets.iter().map(|(id, _)| id.clone()).collect(),
            inputs: Vec::new(),
            frames: Vec::new(),
            expected: Vec::new(),
            params: Vec::new(),
        };
        for (id, net) in nets.iter_mut() {
            let shape = net.input_shape().to_vec();
            let inputs: Vec<Tensor> = (0..INPUTS)
                .map(|_| Tensor::rand_uniform(&shape, 0.0, 1.0, &mut rng))
                .collect();
            let logits = pv_tensor::with_backend(&PACKED, || {
                net.try_forward_batch(&stack(&inputs), Mode::Eval)
            })
            .map_err(err)?;
            let classes = logits.shape()[1];
            for (i, input) in inputs.iter().enumerate() {
                t.frames.push(
                    encode_request(&Request {
                        model: id.clone(),
                        input: input.clone(),
                    })
                    .map_err(err)?,
                );
                let row = &logits.data()[i * classes..(i + 1) * classes];
                t.expected.push(row.iter().map(|v| v.to_bits()).collect());
            }
            t.params.push(net.total_param_count());
            t.inputs.push(inputs);
        }
        Ok(t)
    }

    /// Request `k` goes to model `k mod M`, cycling through its inputs.
    fn frame_of(&self, k: usize) -> usize {
        let m = self.ids.len();
        (k % m) * INPUTS + (k / m) % INPUTS
    }

    fn check(&self, frame: usize, logits: &[f32]) -> bool {
        let want = &self.expected[frame];
        logits.len() == want.len() && logits.iter().zip(want).all(|(a, b)| a.to_bits() == *b)
    }

    /// Median offline `try_forward_batch` time of `models` (copies of the
    /// admitted ones, on their pinned backend) at batch 1 and batch 8, 20
    /// calls each, averaged over the models.
    fn forward_ms(
        &self,
        models: &mut [Network],
        backend: Option<&'static dyn Backend>,
    ) -> Result<(f64, f64), String> {
        let mut b1 = Vec::new();
        let mut b8 = Vec::new();
        for (net, inputs) in models.iter_mut().zip(&self.inputs) {
            for (batch, out) in [(1, &mut b1), (8, &mut b8)] {
                let x = stack(&inputs[..batch]);
                let mut failed = None;
                out.push(median_ms(20, || {
                    let mut f = || net.try_forward_batch(&x, Mode::Eval);
                    let r = match backend {
                        Some(b) => pv_tensor::with_backend(b, f),
                        None => f(),
                    };
                    failed = failed.take().or(r.err());
                }));
                if let Some(e) = failed {
                    return Err(e.to_string());
                }
            }
        }
        Ok((mean(&b1), mean(&b8)))
    }

    /// Median time to encode one request and to decode one reply, µs.
    fn codec_us(&self) -> Result<(f64, f64), String> {
        const CALLS: usize = 200;
        let req = Request {
            model: self.ids[0].clone(),
            input: self.inputs[0][0].clone(),
        };
        let logits: Vec<f32> = self.expected[0]
            .iter()
            .map(|&b| f32::from_bits(b))
            .collect();
        let reply = encode_response(&Response::ok(
            Tensor::from_vec(vec![logits.len()], logits),
            8,
        ))
        .map_err(err)?;
        let encode = median_ms(7, || {
            for _ in 0..CALLS {
                std::hint::black_box(encode_request(std::hint::black_box(&req)).is_ok());
            }
        });
        let decode = median_ms(7, || {
            for _ in 0..CALLS {
                std::hint::black_box(decode_response(std::hint::black_box(&reply[4..])).is_ok());
            }
        });
        Ok((encode * 1e3 / CALLS as f64, decode * 1e3 / CALLS as f64))
    }
}

/// `[n, ...]` batch of equally shaped samples.
fn stack(samples: &[Tensor]) -> Tensor {
    let mut shape = vec![samples.len()];
    shape.extend_from_slice(samples[0].shape());
    let data = samples
        .iter()
        .flat_map(|s| s.data().iter().copied())
        .collect();
    Tensor::from_vec(shape, data)
}

/// A started server and the generator's connection to it.
struct Running {
    handle: ServerHandle,
    stream: TcpStream,
}

/// Starts the server and waits for its first answer: workers clone their
/// models after `serve` returns, so set-up ends only when one is served.
fn start(
    registry: ModelRegistry,
    reload: Option<ReloadFn>,
    probe: &[u8],
) -> Result<Running, String> {
    let cfg = ServerConfig {
        workers: 1,
        batch: BatchConfig {
            max_batch: 8,
            batch_deadline: Duration::from_micros(500),
            queue_capacity: 1024,
        },
        reload,
        ..ServerConfig::default()
    };
    let handle = serve(registry, cfg, Arc::new(pv_obs::MonotonicClock::new())).map_err(err)?;
    let mut stream = TcpStream::connect(handle.addr()).map_err(err)?;
    stream.set_nodelay(true).map_err(err)?;
    stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(err)?;
    stream.set_write_timeout(Some(IO_TIMEOUT)).map_err(err)?;
    stream.write_all(probe).map_err(err)?;
    let body = read_frame(&mut stream)
        .map_err(err)?
        .ok_or("server closed the connection during set-up")?;
    let status = decode_response(&body).map_err(err)?.status;
    if status != Status::Ok {
        return Err(format!("first request answered {}", status.name()));
    }
    Ok(Running { handle, stream })
}

fn phase(run: &Running, traffic: &Traffic, pace: Pace) -> Result<Phase, String> {
    loadgen::run(
        &run.stream,
        &traffic.frames,
        &|k| traffic.frame_of(k),
        pace,
        &|f, logits| traffic.check(f, logits),
    )
}

/// The open phase; for the family, an operator thread hot-reloads the
/// server every [`RELOAD_EVERY_S`] meanwhile and times each reload (ms).
fn open_phase(
    kind: Kind,
    run: &Running,
    traffic: &Traffic,
    secs: f64,
) -> Result<(Phase, Vec<f64>), String> {
    let pace = Pace::Rate {
        per_sec: kind.rate(),
        count: (kind.rate() * secs).round().max(1.0) as usize,
    };
    if kind != Kind::Family {
        return Ok((phase(run, traffic, pace)?, Vec::new()));
    }
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let operator = scope.spawn(|| -> Result<Vec<f64>, String> {
            let t0 = Instant::now();
            let mut reloads = Vec::new();
            let mut next = RELOAD_EVERY_S / 2.0;
            while next < secs {
                while t0.elapsed().as_secs_f64() < next {
                    if done.load(Ordering::SeqCst) {
                        return Ok(reloads);
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                let t = Instant::now();
                run.handle.reload("").map_err(err)?;
                reloads.push(ms_since(t));
                next += RELOAD_EVERY_S;
            }
            Ok(reloads)
        });
        let phase = phase(run, traffic, pace);
        done.store(true, Ordering::SeqCst);
        let reloads = operator
            .join()
            .map_err(|_| "the reload thread panicked".to_string())??;
        Ok((phase?, reloads))
    })
}

/// One round's server, ready to measure.
struct Round {
    run: Running,
    traffic: Traffic,
    backend: Option<&'static dyn Backend>,
    /// Bench-timed parts of set-up: per-layer metric name and ms.
    parts: Vec<(&'static str, f64)>,
    /// Copies of the admitted models for the offline layer timings, made
    /// only for a traced run.
    copies: Vec<Network>,
    /// Build, admission and start until the first answer, s.
    setup_s: f64,
}

/// Sets a round up: build, admit, start, first answer. The client's inputs
/// and reference logits, and a traced run's model copies, are made between
/// those steps, outside the timed set-up.
fn set_up(kind: Kind, args: &Args, ckpt: &Path) -> Result<Round, String> {
    let t = Instant::now();
    let mut p = prepare(kind, args, ckpt)?;
    let mut setup_s = t.elapsed().as_secs_f64();
    let traffic = Traffic::new(&mut p.nets, args.seed)?;
    let t = Instant::now();
    let (registry, pin_ms) = admit(p.nets, p.backend).map_err(err)?;
    setup_s += t.elapsed().as_secs_f64();
    if kind == Kind::Sparse {
        p.parts.push(("prune.csr_prepare.ms", pin_ms));
    }
    let copies = if args.trace {
        traffic
            .ids
            .iter()
            .filter_map(|id| registry.get(id).cloned())
            .collect()
    } else {
        Vec::new()
    };
    let t = Instant::now();
    let run = start(registry, p.reload, &traffic.frames[0])?;
    Ok(Round {
        run,
        traffic,
        backend: p.backend,
        parts: p.parts,
        copies,
        setup_s: setup_s + t.elapsed().as_secs_f64(),
    })
}

fn window(secs: f64) -> Pace {
    Pace::Window {
        in_flight: WINDOW,
        duration: Duration::from_secs_f64(secs),
    }
}

/// Runs one serving workload: [`ROUNDS`] rounds of set-up, capacity phase
/// and open phase, each on freshly built and admitted models, so one run
/// samples several memory placements of the same models. `setup_s` and the
/// capacity are medians over the rounds; the latency percentiles pool the
/// open phases' requests.
pub fn run(kind: Kind, args: &Args) -> Result<Report, String> {
    let tmp = crate::out_dir().join("tmp");
    std::fs::create_dir_all(&tmp).map_err(err)?;
    let ckpt = tmp.join(format!("family-{}.pvck", args.seed));
    let rounds = if args.smoke || args.trace { 1 } else { ROUNDS };
    let cap_s = args.seconds * CAPACITY_SHARE / rounds as f64;
    let open_s = args.seconds * (1.0 - CAPACITY_SHARE) / rounds as f64;
    let mut report = Report::default();
    report.provenance.push((
        "load".into(),
        format!(
            "{rounds} round(s) of: set-up; closed loop with {WINDOW} in flight for {cap_s} s; \
             open loop at {} req/s for {open_s} s",
            kind.rate()
        ),
    ));
    if args.trace {
        let round = set_up(kind, args, &ckpt)?;
        describe_models(&round, &mut report);
        return traced(&args.workload, kind, round, cap_s, open_s, report);
    }

    let (mut setup_s, mut capacity, mut batches) = (Vec::new(), Vec::new(), Vec::new());
    let (mut lat, mut late, mut reloads) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..rounds {
        let round = set_up(kind, args, &ckpt)?;
        let cap = phase(&round.run, &round.traffic, window(cap_s))?;
        let (open, done) = open_phase(kind, &round.run, &round.traffic, open_s)?;
        check_generation(&round.run, &done, &mut report);
        report.attempted += cap.samples.len() + open.samples.len();
        report.failed += cap.failures() + open.failures();
        setup_s.push(round.setup_s);
        capacity.push(cap.ok_per_sec());
        batches.extend(cap.samples.iter().map(|s| f64::from(s.batch)));
        lat.extend(open.latencies_ms());
        late.extend(open.late_ms());
        reloads.extend(done);
        if i == 0 {
            describe_models(&round, &mut report);
        }
    }
    report.end_to_end(
        median(&setup_s),
        median(&lat),
        quantile(&lat, 0.9),
        median(&capacity),
    )?;
    report.extra = vec![
        Metric::new(
            "fail_ratio",
            report.failed as f64 / report.attempted.max(1) as f64,
            "ratio",
        ),
        Metric::new("loadgen.samples", lat.len() as f64, "count"),
        Metric::new("loadgen.p99_ms", quantile(&lat, 0.99), "ms"),
        Metric::new("loadgen.late_p99_ms", quantile(&late, 0.99), "ms"),
        Metric::new("capacity.batch_mean", mean(&batches), "count"),
    ];
    if kind == Kind::Family {
        report
            .extra
            .push(Metric::new("reload_ms", median(&reloads), "ms"));
    }
    warn_if_late(&late, &lat, &mut report);
    Ok(report)
}

/// Open-loop latencies are timed from when requests were due, so a late
/// writer inflates them: past a tenth of the median latency, the run
/// measures the generator as much as the server.
fn warn_if_late(late: &[f64], lat: &[f64], report: &mut Report) {
    let (late_p99, p50) = (quantile(late, 0.99), median(lat));
    if late_p99 > 0.1 * p50 {
        report.warnings.push(format!(
            "the generator's p99 lateness {late_p99:.3} ms exceeds a tenth of the p50 latency {p50:.3} ms"
        ));
    }
}

/// Records each served model's parameter count and pinned backend.
fn describe_models(round: &Round, report: &mut Report) {
    for (id, params) in round.traffic.ids.iter().zip(&round.traffic.params) {
        report.provenance.push((
            format!("model.{id}"),
            format!(
                "{params} parameters, backend {}",
                round.backend.map_or("default", |b| b.name())
            ),
        ));
    }
}

/// Every reload bumps the registry generation once, from 1.
fn check_generation(run: &Running, reloads: &[f64], report: &mut Report) {
    let want = 1 + reloads.len() as u64;
    if run.handle.generation() != want {
        report.problems.push(format!(
            "registry generation {} after {} reloads, want {want}",
            run.handle.generation(),
            reloads.len()
        ));
    }
}

/// The traced rerun: an untraced capacity probe for the overhead baseline
/// and the offline layer timings, then the recorder goes in and both phases
/// run again.
fn traced(
    workload: &str,
    kind: Kind,
    mut round: Round,
    cap_s: f64,
    open_s: f64,
    mut report: Report,
) -> Result<Report, String> {
    let (run, traffic) = (&round.run, &round.traffic);
    let baseline = phase(run, traffic, window(cap_s / 2.0))?;
    let (b1, b8) = traffic.forward_ms(&mut round.copies, round.backend)?;
    let (encode_us, decode_us) = traffic.codec_us()?;

    let rec = pv_obs::Recorder::new(pv_obs::MonotonicClock::new());
    if !pv_obs::install(rec.clone()) {
        return Err("a pv-obs recorder was already installed in this process".into());
    }
    let t0 = Instant::now();
    let cap = phase(run, traffic, window(cap_s))?;
    let at_capacity = rec.snapshot();
    let (open, reloads) = open_phase(kind, run, traffic, open_s)?;
    let snap = rec.snapshot();
    let wall_ns = t0.elapsed().as_nanos() as u64;
    check_generation(run, &reloads, &mut report);
    crate::write_trace(workload, &snap)?;

    report.attempted = baseline.samples.len() + cap.samples.len() + open.samples.len();
    report.failed = baseline.failures() + cap.failures() + open.failures();
    let jobs = (cap.samples.len() + open.samples.len()).max(1) as f64;
    let mut l = Layers::default();
    l.kernels(&snap, jobs, wall_ns);
    l.obs(
        &snap,
        100.0 * (baseline.ok_per_sec() / cap.ok_per_sec() - 1.0),
    );
    l.set("nn.forward_b1.ms", b1);
    l.set("nn.forward_b8.ms", b8);
    for &(name, ms) in &round.parts {
        l.set(name, ms);
    }
    let request_ms = layers::hist_mean_ms(&snap, "serve/request_ns");
    let exec_ms = layers::hist_mean_ms(&snap, "serve/batch_exec_ns");
    l.set("serve.request.mean_ms", request_ms);
    l.set("serve.batch_exec.mean_ms", exec_ms);
    l.set("serve.queue_wait.mean_ms", request_ms - exec_ms);
    l.set(
        "serve.queue_depth.peak",
        layers::gauge_max(&snap, "serve/queue_depth"),
    );
    l.set(
        "serve.batch_size.mean",
        layers::hist_mean(&snap, "serve/batch_size"),
    );
    let client: Vec<f64> = cap
        .client_ms()
        .into_iter()
        .chain(open.client_ms())
        .collect();
    l.set("serve.client_overhead.mean_ms", mean(&client) - request_ms);
    l.set("serve.codec.encode_us", encode_us);
    l.set("serve.codec.decode_us", decode_us);
    l.set("serve.reload.ms", median(&reloads));
    l.set(
        "serve.worker_refreshes",
        layers::counter(&snap, "serve/worker_refreshes"),
    );
    l.set("serve.busy", layers::counter(&snap, "serve/rejected"));
    l.set("serve.failed", layers::counter(&snap, "serve/failed"));
    l.set(
        "serve.bad_frames",
        layers::counter(&snap, "serve/bad_frames"),
    );
    let lat = open.latencies_ms();
    let late = open.late_ms();
    l.set("loadgen.samples", lat.len() as f64);
    l.set("loadgen.late_p99_ms", quantile(&late, 0.99));
    l.set("loadgen.p99_ms", quantile(&lat, 0.99));
    warn_if_late(&late, &lat, &mut report);

    // add-up check: the served batches cost what the same forward pass
    // costs offline, at the capacity phase's mean batch size (interpolated
    // between the batch-1 and batch-8 timings)
    let batch = layers::hist_mean(&at_capacity, "serve/batch_size");
    let exec = layers::hist_mean_ms(&at_capacity, "serve/batch_exec_ns");
    let offline = b1 + (b8 - b1) * (batch - 1.0) / 7.0;
    report
        .extra
        .push(Metric::new("addup.capacity_batch_exec_ms", exec, "ms"));
    report
        .extra
        .push(Metric::new("addup.offline_forward_ms", offline, "ms"));
    if (exec - offline).abs() > 0.25 * exec {
        report.warnings.push(format!(
            "add-up: served batches take {exec:.3} ms but the offline forward at batch {batch:.2} takes {offline:.3} ms"
        ));
    }
    if snap.dropped_spans > 0 {
        report
            .warnings
            .push(format!("the recorder dropped {} spans", snap.dropped_spans));
    }
    report.metrics = l.into_metrics();
    Ok(report)
}
