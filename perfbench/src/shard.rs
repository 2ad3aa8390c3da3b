//! Shard workloads: `shard_server` processes spawned by
//! `ms_cluster::Supervisor`, driven open-loop through
//! `ms_cluster::FrontRouter` from this one process (main loop plus the
//! router's one reader thread), with one control connection for `Metrics`
//! scrapes before and after each pass.
//!
//! Every request is timed from its *scheduled* send instant, so a stall
//! in the generator or the system is charged to every request it delays.

use crate::check::{Ledger, Oracle, Verdict};
use crate::metrics::Metrics;
use crate::models::{random_inputs, rate_tag, ModelSpec, RATES, WEIGHT_SEED};
use crate::procfs;
use crate::schedule::{
    capacity, steal_share, undisturbed, EpisodeFigures, Outcomes, Plan, Schedule,
};
use crate::scrape::Snapshot;
use crate::stats::{median, quantile, ratio};
use crate::trace::Tracer;
use ms_cluster::{FrontRouter, ShardSpec, Supervisor};
use ms_net::protocol::{Frame, InferOutcome, InferRequest, InferResponse};
use ms_net::Client;
use ms_tensor::Tensor;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One shard workload.
pub struct WireWorkload {
    pub model: ModelSpec,
    pub latency_us: u64,
    /// Distinct inputs the requests draw from.
    pub inputs: usize,
    /// The load of one pass, before stretching to `--seconds`.
    pub plan: Plan,
}

/// Spawns, readies and removes shards so that one survives for the run.
const SETUPS: usize = 9;
/// Generator send tick.
const GEN_TICK: Duration = Duration::from_millis(1);
/// Correlation ids at and above this are readiness probes, not load.
const PROBE_ID: u64 = 1 << 62;

/// What one pass measured.
struct Pass<'a> {
    sched: &'a Schedule,
    ledger: Ledger,
    /// Client latency per request (ms) from its scheduled send; NaN when
    /// not delivered.
    latency_ms: Vec<f32>,
    /// Served rate per request; NaN when not delivered.
    rate: Vec<f32>,
    lag_ms: Vec<f64>,
    /// Shard CPU seconds at the start of every segment and at the end.
    cpu_at: Vec<f64>,
    /// Host steal seconds at the same instants.
    steal_at: Vec<f64>,
    server: Snapshot,
    /// Responses returned by non-blocking pumps.
    pumped: usize,
    /// Shard peak RSS (MiB) when the episodes ended, before any staircase.
    peak_rss_mb: f64,
}

pub struct WireOutcome {
    pub metrics: Metrics,
    pub verdicts: Vec<Verdict>,
}

/// Runs `w`: setup, one untraced pass, and with `traced` a second, traced
/// pass plus the layer, kernel and codec passes.
pub fn run(
    name: &str,
    w: &WireWorkload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<WireOutcome, String> {
    let bin = std::env::var("MS_SHARD_BIN").map_err(|_| "MS_SHARD_BIN is not set".to_string())?;
    let bin = PathBuf::from(bin);
    if !bin.is_file() {
        return Err(format!("MS_SHARD_BIN {} is not a file", bin.display()));
    }
    let ModelSpec::Mlp(cfg) = &w.model else {
        return Err("shard workloads serve MLPs".into());
    };
    let spec = ShardSpec {
        bin,
        replicas: 1,
        input_dim: cfg.input_dim,
        hidden: cfg.hidden_dims.clone(),
        classes: cfg.num_classes,
        groups: cfg.groups,
        latency_us: w.latency_us,
        t_full_us: 0,
        max_queue: 100_000,
        sample_ms: 250,
        seed: WEIGHT_SEED,
    };
    let inputs = random_inputs(&w.model.sample_dims(), w.inputs, seed);
    let mut sup = Supervisor::new(spec);
    let mut router = FrontRouter::new();

    // Setup: spawn → connect → first answered request, several times; the
    // last shard serves the run.
    let (mut spawn_s, mut setup_s) = (Vec::new(), Vec::new());
    let mut shard = None;
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let (id, addr) = sup.spawn_shard().map_err(|e| format!("spawn shard: {e}"))?;
        spawn_s.push(t0.elapsed().as_secs_f64());
        router
            .add_shard(id, 1, addr)
            .map_err(|e| format!("connect shard: {e}"))?;
        probe(&mut router, PROBE_ID + i as u64, &inputs[0])?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            sup.kill(id).map_err(|e| format!("kill shard: {e}"))?;
            router.remove_shard(id);
            let deadline = Instant::now() + Duration::from_secs(10);
            while !sup.is_empty() && Instant::now() < deadline {
                sup.poll_exits();
                std::thread::sleep(Duration::from_millis(2));
            }
        } else {
            shard = Some((id, addr));
        }
    }
    let (shard_id, addr) = shard.expect("SETUPS > 0");
    let pid = sup.shards()[0].pid;
    let mut control = Client::connect(addr).map_err(|e| format!("control connection: {e}"))?;

    let plan = w.plan.scaled_to(seconds);
    let sched = Schedule::poisson(&plan.segments(), seed, w.inputs);
    let t_ms = w.latency_us as f64 * 1e-3;
    // The output check runs after each pass, outside its timed window.
    let mut model = w.model.build(WEIGHT_SEED);
    let mut oracle = Oracle::new(model.as_mut(), &inputs);
    let mut verdicts = Vec::new();

    let mut tracer = Tracer::new(false);
    let plain = drive(
        &mut router,
        &mut control,
        pid,
        w,
        &plan,
        &sched,
        &inputs,
        &mut tracer,
    )?;
    verdicts.push(plain.ledger.verify(|i, r, got| oracle.matches(i, r, got)));
    let (mut m, _) = e2e_metrics(&plain, &plan, t_ms);
    m.set("setup_s", median(&mut setup_s), "s");
    m.set("peak_rss_mb", plain.peak_rss_mb, "MB");
    drop(plain);

    if traced {
        // One dispatch span per request, plus a few per generator tick.
        let ticks = (seconds / GEN_TICK.as_secs_f64()) as usize;
        let mut tracer = Tracer::with_capacity(true, sched.len() + 4 * ticks);
        let pass = drive(
            &mut router,
            &mut control,
            pid,
            w,
            &plan,
            &sched,
            &inputs,
            &mut tracer,
        )?;
        let verdict = pass.ledger.verify(|i, r, got| oracle.matches(i, r, got));
        verdicts.push(verdict);
        let (traced_e2e, disturbed) = e2e_metrics(&pass, &plan, t_ms);
        let mut per_layer = Metrics::default();
        for (k, (v, u)) in traced_e2e.iter() {
            let base = m.get(k).expect("same metric set");
            per_layer.set(format!("trace.overhead.{k}"), v - base, u);
        }
        per_layer.set("loadgen.episodes_disturbed", disturbed as f64, "count");
        verdict.report(&mut per_layer);
        per_layer.extend(layer_metrics(&pass, &tracer, &spawn_s, t_ms));
        per_layer.extend(codec_pass(&w.model, &inputs[0], &mut tracer));
        tracer
            .write(&crate::trace_path(name))
            .map_err(|e| format!("write spans: {e}"))?;
        m = per_layer;
    }
    eprintln!(
        "  output check: {} responses equal the single-row result, {} only a larger batch-size regime",
        oracle.single_row, oracle.batched_only
    );

    sup.retire(shard_id, Duration::from_secs(10))
        .map_err(|e| format!("retire shard: {e}"))?;
    router.remove_shard(shard_id);
    Ok(WireOutcome {
        metrics: m,
        verdicts,
    })
}

/// Sends one request and waits for its logits: the readiness check.
fn probe(router: &mut FrontRouter, id: u64, input: &Tensor) -> Result<(), String> {
    if router.dispatch(id, 0, input).is_some() {
        return Err("no shard accepted the readiness probe".into());
    }
    router.flush();
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        for r in router.pump(Duration::from_millis(50)) {
            if r.correlation_id == id {
                return match r.outcome {
                    InferOutcome::Logits { .. } => Ok(()),
                    InferOutcome::Shed(why) => Err(format!("readiness probe shed: {why:?}")),
                };
            }
        }
    }
    Err("readiness probe timed out".into())
}

fn scrape(control: &mut Client) -> Result<Snapshot, String> {
    control
        .metrics()
        .map(|t| Snapshot::parse(&t))
        .map_err(|e| format!("metrics scrape: {e}"))
}

/// One open-loop pass over `sched`.
#[allow(clippy::too_many_arguments)]
fn drive<'a>(
    router: &mut FrontRouter,
    control: &mut Client,
    pid: u32,
    w: &WireWorkload,
    plan: &Plan,
    sched: &'a Schedule,
    inputs: &[Tensor],
    tracer: &mut Tracer,
) -> Result<Pass<'a>, String> {
    let n = sched.len();
    let classes = w.model.classes();
    let cpu = || procfs::cpu_seconds(pid).map_err(|e| format!("cpu time: {e}"));
    let mut ledger = Ledger::new(classes, sched.input.clone());
    let mut latency_ms = vec![f32::NAN; n];
    let mut rate = vec![f32::NAN; n];
    let mut lag_ms = Vec::with_capacity(n);
    let segments = sched.segments.len();
    let before = scrape(control)?;
    let rss = || procfs::peak_rss_mb(pid).map_err(|e| format!("VmHWM: {e}"));
    let steal = || procfs::steal_seconds().map_err(|e| format!("steal time: {e}"));
    let mut cpu_at = vec![cpu()?];
    let mut steal_at = vec![steal()?];
    let mut peak_rss_mb = 0.0;
    let mut pumped = 0usize;

    let t0 = Instant::now();
    let due = |i: usize| t0 + Duration::from_secs_f64(sched.at[i]);
    let settle = |resps: Vec<InferResponse>,
                  ledger: &mut Ledger,
                  latency_ms: &mut [f32],
                  rate: &mut [f32]| {
        let now = Instant::now();
        for r in resps {
            let id = r.correlation_id;
            match r.outcome {
                InferOutcome::Logits { data, .. } => {
                    if ledger.deliver(id, r.rate_used, &data) {
                        latency_ms[id as usize] =
                            (now - due(id as usize)).as_secs_f64() as f32 * 1e3;
                        rate[id as usize] = r.rate_used;
                    }
                }
                InferOutcome::Shed(_) => {
                    ledger.shed(id);
                }
            }
        }
    };

    let mut next = 0usize;
    let mut seg = 0usize;
    while next < n {
        let now = Instant::now();
        // Segment boundary: note CPU, and peak memory before any
        // staircase.
        let s = sched.seg[next] as usize;
        if s != seg {
            let c = cpu()?;
            cpu_at.resize(s + 1, c);
            let st = steal()?;
            steal_at.resize(s + 1, st);
            if s == plan.tail_start() {
                peak_rss_mb = rss()?;
            }
            seg = s;
        }
        // Sends go out on generator ticks: each tick sends every request
        // due by then in one flush, so the send pattern (and with it the
        // server's per-wakeup batching) does not depend on how promptly
        // the host wakes this thread.
        let ticks = (sched.at[next] / GEN_TICK.as_secs_f64()).ceil() as u32;
        let at = t0 + GEN_TICK * ticks;
        if at > now {
            let id = tracer.begin("cluster.pump_wait", 0, 0);
            let got = router.pump(at - now);
            tracer.end(id);
            settle(got, &mut ledger, &mut latency_ms, &mut rate);
            continue;
        }
        let tick = tracer.begin("loadgen.tick", 0, 0);
        while next < n && due(next) <= now {
            lag_ms.push((now - due(next)).as_secs_f64() * 1e3);
            let input = &inputs[sched.input[next] as usize];
            let id = tracer.begin("cluster.dispatch", tick, next as u64);
            let shed = router.dispatch(next as u64, 0, input);
            tracer.end(id);
            if let Some(shed) = shed {
                settle(vec![shed], &mut ledger, &mut latency_ms, &mut rate);
            }
            next += 1;
        }
        let id = tracer.begin("cluster.flush", tick, 0);
        router.flush();
        tracer.end(id);
        let id = tracer.begin("cluster.pump", tick, 0);
        let got = router.pump(Duration::ZERO);
        tracer.end(id);
        pumped += got.len();
        settle(got, &mut ledger, &mut latency_ms, &mut rate);
        tracer.end(tick);
    }
    let c = cpu()?;
    cpu_at.resize(segments + 1, c);
    let st = steal()?;
    steal_at.resize(segments + 1, st);
    if plan.staircases == 0 {
        peak_rss_mb = rss()?;
    }

    // Settle: every sent id must come back, one way or another.
    let deadline = Instant::now() + Duration::from_secs(30);
    while router.outstanding() > 0 && Instant::now() < deadline {
        let got = router.pump(Duration::from_millis(20));
        settle(got, &mut ledger, &mut latency_ms, &mut rate);
    }
    let after = scrape(control)?;
    Ok(Pass {
        sched,
        ledger,
        latency_ms,
        rate,
        lag_ms,
        cpu_at,
        steal_at,
        server: after.minus(&before),
        pumped,
        peak_rss_mb,
    })
}

impl Pass<'_> {
    fn outcomes(&self, t_ms: f64) -> Outcomes<'_> {
        Outcomes {
            sched: self.sched,
            latency_ms: &self.latency_ms,
            judged_ms: &self.latency_ms,
            rate: &self.rate,
            t_ms,
        }
    }
}

/// The end-to-end metrics of one pass (all but `setup_s`/`peak_rss_mb`):
/// medians over the plan's episodes. Capacity is the median staircase
/// knee when the plan has staircases, else the best sustained segment.
fn e2e_metrics(p: &Pass, plan: &Plan, t_ms: f64) -> (Metrics, usize) {
    let o = p.outcomes(t_ms);
    let eps = o.episodes(plan);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Per-interval CPU and steal over the segments `[a, b)`.
    let over = |at: &[f64], a: usize, b: usize| at[b] - at[a];
    let wall = |a: usize, b: usize| -> f64 { p.sched.segments[a..b].iter().map(|g| g.secs).sum() };
    let per = plan.episode.len();
    let cpu_s: Vec<f64> = (0..plan.episodes)
        .map(|e| over(&p.cpu_at, e * per, (e + 1) * per))
        .collect();
    let steal: Vec<f64> = (0..plan.episodes)
        .map(|e| {
            let (a, b) = (e * per, (e + 1) * per);
            steal_share(over(&p.steal_at, a, b), wall(a, b), cpus)
        })
        .collect();
    let verdicts = o.segment_verdicts();
    for (g, v) in plan.staircase.iter().zip(&verdicts[plan.tail_start()..]) {
        eprintln!(
            "  step {:>7.0} req/s: sent {} on time {} ({:.0} req/s)",
            g.rps,
            v.sent,
            v.hits,
            v.hits as f64 / v.secs
        );
    }
    // Each staircase's knee is its best sustained segment. Near the knee
    // the host's hiccups decide which step holds, so the knees of one pass
    // spread by a third; capacity is their median.
    let capacity_rps = if plan.staircases == 0 {
        capacity(&verdicts, t_ms)
    } else {
        let stair = plan.staircase.len();
        let mut knees = Vec::with_capacity(plan.staircases);
        for k in 0..plan.staircases {
            let (a, b) = (
                plan.tail_start() + k * stair,
                plan.tail_start() + (k + 1) * stair,
            );
            let knee = capacity(&verdicts[a..b], t_ms);
            eprintln!(
                "  staircase {k}: knee {knee:.0} req/s, steal {:.1} %",
                100.0 * steal_share(over(&p.steal_at, a, b), wall(a, b), cpus)
            );
            knees.push(knee);
        }
        median(&mut knees)
    };
    episode_medians(&eps, &cpu_s, &steal, capacity_rps)
}

/// Median over the kept episodes of each end-to-end figure; `cpu_s` is
/// the server's CPU time over each episode.
/// Also returns how many episodes were left out.
pub fn episode_medians(
    eps: &[EpisodeFigures],
    cpu_s: &[f64],
    steal: &[f64],
    capacity_rps: f64,
) -> (Metrics, usize) {
    let keep = undisturbed(steal);
    let disturbed = keep.iter().filter(|&&k| !k).count();
    eprintln!(
        "  {disturbed} of {} episodes disturbed by host steal, left out",
        eps.len()
    );
    let mut cpu_us = Vec::new();
    let mut kept = Vec::new();
    for (e, ((f, c), (&k, s))) in eps
        .iter()
        .zip(cpu_s)
        .zip(keep.iter().zip(steal))
        .enumerate()
    {
        let c = ratio(c * 1e6, f.delivered as f64);
        if k {
            cpu_us.push(c);
            kept.push(*f);
        }
        eprintln!(
            "  episode {e}: sent {} hit {:.4} p50 {:.2} ms p99 {:.2} ms rate {:.3} cpu {c:.2} us/request steal {:.1} %{}",
            f.sent,
            ratio(f.hits as f64, f.sent as f64),
            f.p50_ms,
            f.p99_ms,
            f.served_rate_mean,
            100.0 * s,
            if k { "" } else { " (disturbed)" }
        );
    }
    let eps = kept;
    let med =
        |f: &dyn Fn(&EpisodeFigures) -> f64| median(&mut eps.iter().map(f).collect::<Vec<_>>());
    let mut m = Metrics::default();
    m.set(
        "deadline_hit_ratio",
        med(&|f| ratio(f.hits as f64, f.sent as f64)),
        "ratio",
    );
    m.set(
        "answered_ratio",
        med(&|f| ratio(f.delivered as f64, f.sent as f64)),
        "ratio",
    );
    m.set("served_rate_mean", med(&|f| f.served_rate_mean), "rate");
    m.set("latency_p50_ms", med(&|f| f.p50_ms), "ms");
    m.set("latency_p99_ms", med(&|f| f.p99_ms), "ms");
    m.set("capacity_rps", capacity_rps, "1/s");
    m.set("cpu_us_per_request", median(&mut cpu_us), "us");
    (m, disturbed)
}

/// Per-layer metrics of the traced pass: generator, router, server-side
/// registry diff.
fn layer_metrics(p: &Pass, tracer: &Tracer, spawn_s: &[f64], t_ms: f64) -> Metrics {
    let mut m = Metrics::default();
    let mut lag = p.lag_ms.clone();
    m.set("loadgen.lag_p99_ms", quantile(&mut lag, 0.99), "ms");
    m.set(
        "loadgen.self_us_per_request",
        ratio(tracer.total_self_us("loadgen.tick"), p.sched.len() as f64),
        "us",
    );
    m.set("cluster.spawn_s", median(&mut spawn_s.to_vec()), "s");
    let mut d = tracer.durations_us("cluster.dispatch");
    m.set("cluster.dispatch_us_p50", quantile(&mut d, 0.50), "us");
    m.set("cluster.dispatch_us_p99", quantile(&mut d, 0.99), "us");
    m.set(
        "cluster.flush_us_p50",
        median(&mut tracer.durations_us("cluster.flush")),
        "us",
    );
    let pump: f64 = tracer.durations_us("cluster.pump").iter().sum();
    m.set(
        "cluster.pump_us_per_response",
        ratio(pump, p.pumped as f64),
        "us",
    );

    let s = &p.server;
    m.set(
        "net.server_miss_ratio",
        ratio(
            s.sum("net_deadline_miss_total", &[]),
            s.sum("net_deadline_total", &[]),
        ),
        "ratio",
    );
    let (sent, hits) = p
        .outcomes(t_ms)
        .segment_verdicts()
        .iter()
        .fold((0, 0), |(a, b), v| (a + v.sent, b + v.hits));
    eprintln!(
        "  miss ratio: server-judged {:.4}, client-judged {:.4}",
        m.get("net.server_miss_ratio").unwrap_or(0.0),
        1.0 - ratio(hits as f64, sent as f64)
    );
    serving_metrics(s, &mut m);
    m
}

/// `serving.*` and `tensor.pool_hit_ratio` from a registry diff.
pub fn serving_metrics(s: &Snapshot, m: &mut Metrics) {
    let batches = s.sum("engine_batches_total", &[]);
    m.set("serving.batches", batches, "count");
    m.set(
        "serving.batch_size_mean",
        ratio(s.sum("engine_served_total", &[]), batches),
        "count",
    );
    m.set(
        "serving.shed_admission",
        s.sum("engine_shed_reason_total", &[("reason", "admission")]),
        "count",
    );
    m.set(
        "serving.shed_backpressure",
        s.sum("engine_shed_reason_total", &[("reason", "backpressure")]),
        "count",
    );
    for &r in &RATES {
        let label = format!("{r:.4}");
        let want = [("rate", label.as_str())];
        let tag = rate_tag(r);
        m.set(
            format!("serving.batch_share.{tag}"),
            ratio(s.sum("engine_rate_batches_total", &want), batches),
            "ratio",
        );
        for (q, qn) in [(0.5, "p50"), (0.99, "p99")] {
            m.set(
                format!("serving.service_ms_{qn}.{tag}"),
                s.histogram_quantile("engine_service_seconds", &want, q) * 1e3,
                "ms",
            );
        }
    }
    let hits = s.sum("tensor_pool_hits_total", &[]);
    let misses = s.sum("tensor_pool_misses_total", &[]);
    m.set("tensor.pool_hit_ratio", ratio(hits, hits + misses), "ratio");
}

/// Wire codec cost at the workload's tensor shapes: encoding one request
/// frame and decoding one response frame, µs per call.
fn codec_pass(model: &ModelSpec, input: &Tensor, tracer: &mut Tracer) -> Metrics {
    const CALLS: usize = 2000;
    let req = Frame::InferRequest(InferRequest {
        correlation_id: 1,
        deadline_micros: 0,
        dims: input.dims().iter().map(|&d| d as u32).collect(),
        data: input.data().to_vec(),
    });
    let classes = model.classes();
    let resp = Frame::InferResponse(InferResponse {
        correlation_id: 1,
        rate_used: 1.0,
        outcome: InferOutcome::Logits {
            dims: vec![classes as u32],
            data: (0..classes).map(|i| i as f32 * 0.5).collect(),
        },
    });
    let resp_bytes = resp.to_bytes();
    let mut buf = Vec::new();
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for _ in 0..7 {
        let id = tracer.begin("net.request_encode", 0, 0);
        for _ in 0..CALLS {
            buf.clear();
            std::hint::black_box(&req).encode(&mut buf);
        }
        enc.push(tracer.end(id) / CALLS as f64);
        let id = tracer.begin("net.response_decode", 0, 0);
        for _ in 0..CALLS {
            let f = Frame::decode(std::hint::black_box(&resp_bytes)).expect("own frame decodes");
            std::hint::black_box(f);
        }
        dec.push(tracer.end(id) / CALLS as f64);
    }
    let mut m = Metrics::default();
    m.set("net.request_encode_us", median(&mut enc), "us");
    m.set("net.response_decode_us", median(&mut dec), "us");
    m
}
