//! The in-process workload: `ms_serving::Engine` replaying a seeded trace
//! through `Engine::replay`. Arrivals follow the replay's virtual clock
//! (one tick = one `T/2` batching window); service times are measured.
//! No wire, no timers.

use crate::check::{Ledger, Oracle, Verdict};
use crate::metrics::Metrics;
use crate::models::{random_inputs, rate_tag, ModelSpec, RATES, WEIGHT_SEED};
use crate::procfs;
use crate::schedule::{capacity, steal_share, Outcomes, Plan, Schedule, Segment};
use crate::scrape::Snapshot;
use crate::shard::{episode_medians, serving_metrics};
use crate::stats::{median, ratio};
use crate::trace::Tracer;
use ms_core::{SliceRate, SliceRateList};
use ms_nn::{Layer, SharedWeights};
use ms_serving::controller::{RatePolicy, SlaController};
use ms_serving::engine::{Engine, EngineConfig, EngineResponse};
use ms_serving::profile::LatencyProfile;
use ms_serving::workload::WorkloadTrace;
use ms_tensor::Tensor;
use std::collections::HashMap;
use std::time::Instant;

pub struct ReplayWorkload {
    pub model: ModelSpec,
    pub replicas: usize,
    /// SLA `T`, seconds.
    pub latency: f64,
    /// Distinct inputs the requests draw from.
    pub inputs: usize,
    /// One episode of virtual-time arrival segments; each episode is one
    /// `Engine::replay` call.
    pub episode: Vec<Segment>,
    /// Episodes per second of `--seconds`.
    pub episodes_per_second: f64,
}

/// Engines kept to serve the run, each started (and timed) before it.
/// Each keeps its own worker buffer pools, so memory grows with the count.
const ENGINES: usize = 5;
/// Further engine starts timed between the untraced pass's episodes. The
/// host's speed wanders over seconds and start-up calibration with it, so
/// starts spread over the run give a steadier median than starts in a row.
const SPREAD_SETUPS: usize = 8;

pub struct ReplayOutcome {
    pub metrics: Metrics,
    pub verdicts: Vec<Verdict>,
}

/// One replicated engine as a server would build it: weights from the
/// seed, profile calibrated on the live model, elastic policy.
fn start_engine(w: &ReplayWorkload) -> Engine {
    let mut proto = w.model.build(WEIGHT_SEED);
    let weights = SharedWeights::capture(proto.as_mut());
    let list = SliceRateList::from_rates(&RATES);
    let profile = LatencyProfile::calibrate(proto.as_mut(), list, &w.model.sample_dims(), 256, 3);
    let replicas: Vec<Box<dyn Layer + Send>> = (0..w.replicas)
        .map(|i| {
            let mut m = w.model.build(WEIGHT_SEED + 1 + i as u64);
            weights.hydrate(m.as_mut());
            m
        })
        .collect();
    Engine::start(
        EngineConfig {
            latency: w.latency,
            max_queue: usize::MAX,
            refine: false,
            ..EngineConfig::default()
        },
        SlaController::new(profile, RatePolicy::Elastic),
        replicas,
    )
}

struct Pass {
    ledger: Ledger,
    /// From the scheduled arrival to the batch's end on the virtual
    /// timeline, ms; NaN when not served.
    latency_ms: Vec<f32>,
    /// Wait + service after the batching window closed, ms: what the
    /// replay judges against its `T/2` processing window.
    judged_ms: Vec<f32>,
    /// Served rate per request; NaN when not served.
    rate: Vec<f32>,
    /// This process's CPU seconds over each episode.
    cpu_s: Vec<f64>,
    /// Share of the machine's CPU time the host stole over each episode.
    steal: Vec<f64>,
    /// `(engine, rate, batch size, measured service s)` of every batch.
    batches: Vec<(usize, f32, usize, f64)>,
    registry: Snapshot,
}

pub fn run(
    name: &str,
    w: &ReplayWorkload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<ReplayOutcome, String> {
    // Every engine calibrates its own profile at startup, and the
    // controller's choices follow it; episodes rotate over all of them so
    // one outlying calibration moves a minority of episodes.
    let mut setup_s = Vec::new();
    let mut engines = Vec::new();
    for _ in 0..ENGINES {
        let t0 = Instant::now();
        engines.push(start_engine(w));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let inputs = random_inputs(&w.model.sample_dims(), w.inputs, seed);
    let plan = Plan {
        episode: w.episode.clone(),
        episodes: ((w.episodes_per_second * seconds).round() as usize).max(1),
        staircase: Vec::new(),
        staircases: 0,
    };
    let sched = Schedule::poisson(&plan.segments(), seed, w.inputs);
    let window = w.latency / 2.0;
    let t_ms = window * 1e3;

    // The output check runs after each pass, outside its timed window.
    let mut model = w.model.build(WEIGHT_SEED);
    let mut oracle = Oracle::new(model.as_mut(), &inputs);
    let mut verdicts = Vec::new();

    let mut tracer = Tracer::new(false);
    let plain = drive(
        &engines,
        w,
        &plan,
        &sched,
        &inputs,
        &mut tracer,
        Some(&mut setup_s),
    )?;
    let (mut m, _) = e2e_metrics(&plain, &plan, &sched, t_ms);
    m.set("setup_s", median(&mut setup_s), "s");
    m.set(
        "peak_rss_mb",
        procfs::peak_rss_mb(std::process::id()).map_err(|e| format!("VmHWM: {e}"))?,
        "MB",
    );
    verdicts.push(plain.ledger.verify(|i, r, got| oracle.matches(i, r, got)));
    drop(plain);
    if traced {
        // One input span per request, one replay span per episode.
        let mut tracer = Tracer::with_capacity(true, sched.len() + plan.episodes);
        let pass = drive(&engines, w, &plan, &sched, &inputs, &mut tracer, None)?;
        let verdict = pass.ledger.verify(|i, r, got| oracle.matches(i, r, got));
        verdicts.push(verdict);
        let mut per_layer = Metrics::default();
        let (traced_e2e, disturbed) = e2e_metrics(&pass, &plan, &sched, t_ms);
        for (k, (v, u)) in traced_e2e.iter() {
            let base = m.get(k).expect("same metric set");
            per_layer.set(format!("trace.overhead.{k}"), v - base, u);
        }
        per_layer.set("loadgen.episodes_disturbed", disturbed as f64, "count");
        verdict.report(&mut per_layer);
        serving_metrics(&pass.registry, &mut per_layer);
        plan_metrics(&pass, &engines, &mut per_layer);
        per_layer.set(
            "loadgen.self_us_per_request",
            ratio(
                tracer.durations_us("loadgen.input_for").iter().sum(),
                sched.len() as f64,
            ),
            "us",
        );
        tracer
            .write(&crate::trace_path(name))
            .map_err(|e| format!("write spans: {e}"))?;
        m = per_layer;
    }
    engines.into_iter().for_each(Engine::shutdown);
    eprintln!(
        "  output check: {} responses equal the single-row result, {} only a larger batch-size regime",
        oracle.single_row, oracle.batched_only
    );
    Ok(ReplayOutcome {
        metrics: m,
        verdicts,
    })
}

/// Replays the whole schedule, chunk by chunk, and rebuilds each
/// request's virtual latency. With `setup_s`, also times
/// [`SPREAD_SETUPS`] engine starts spread between the chunks.
fn drive(
    engines: &[Engine],
    w: &ReplayWorkload,
    plan: &Plan,
    sched: &Schedule,
    inputs: &[Tensor],
    tracer: &mut Tracer,
    mut setup_s: Option<&mut Vec<f64>>,
) -> Result<Pass, String> {
    let window = w.latency / 2.0;
    let n = sched.len();
    let mut ledger = Ledger::new(w.model.classes(), sched.input.clone());
    let mut latency_ms = vec![f32::NAN; n];
    let mut judged_ms = vec![f32::NAN; n];
    let mut rate = vec![f32::NAN; n];
    let mut cpu_s = Vec::with_capacity(plan.episodes);
    let mut batches = Vec::new();
    let tick_of = |i: usize| (sched.at[i] / window).floor() as usize;
    let episode_secs: f64 = plan.episode.iter().map(|s| s.secs).sum();
    let chunk_ticks = ((episode_secs / window).round() as usize).max(1);
    let ticks = chunk_ticks * plan.episodes;

    let before = Snapshot::parse(&ms_telemetry::global().render_prometheus());
    let pid = std::process::id();
    let cpu = || procfs::cpu_seconds(pid).map_err(|e| format!("cpu time: {e}"));
    let stolen = || procfs::steal_seconds().map_err(|e| format!("steal time: {e}"));
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut steal = Vec::with_capacity(plan.episodes);
    let mut first = 0usize;
    let mut t = 0usize;
    while t < ticks {
        let e = t / chunk_ticks % engines.len();
        let engine = &engines[e];
        let t_end = (t + chunk_ticks).min(ticks);
        let mut last = first;
        while last < n && tick_of(last) < t_end {
            last += 1;
        }
        let mut arrivals = vec![0usize; t_end - t];
        for i in first..last {
            arrivals[tick_of(i) - t] += 1;
        }
        let trace = WorkloadTrace {
            rates: vec![0.0; arrivals.len()],
            arrivals,
        };
        // Engine ids are consecutive from the engine's first request;
        // `id_base` maps them back to schedule indices.
        let cpu0 = cpu()?;
        let steal0 = stolen()?;
        let wall0 = Instant::now();
        let mut id_base: Option<u64> = None;
        let mut k = 0usize;
        let mut bad_ids = false;
        let replay_span = tracer.begin("serving.replay", 0, 0);
        let report = {
            let tracer = &mut *tracer;
            engine.replay(&trace, |id| {
                let i = first + k;
                let base = *id_base.get_or_insert(id);
                bad_ids |= id != base + k as u64;
                k += 1;
                let s = tracer.begin("loadgen.input_for", replay_span, i as u64);
                let x = inputs[sched.input[i] as usize].clone();
                tracer.end(s);
                x
            })
        };
        tracer.end(replay_span);
        let shed_ids = engine.take_shed_ids();
        if bad_ids || k != last - first {
            return Err("engine ids are not consecutive within a replay".into());
        }
        let base = id_base.unwrap_or(0);
        let index = |id: u64| first + (id - base) as usize;
        for id in shed_ids {
            ledger.shed(index(id) as u64);
        }
        // The replay's virtual timeline, rebuilt per request: batches
        // start in sealing order on the earliest free worker, never
        // before their formation tick closed.
        let mut by_batch: HashMap<usize, Vec<&EngineResponse>> = HashMap::new();
        for r in &report.responses {
            ledger.deliver(index(r.id) as u64, r.rate, r.logits.data());
            by_batch.entry(r.batch_seq).or_default().push(r);
        }
        let mut seqs: Vec<usize> = by_batch.keys().copied().collect();
        seqs.sort_unstable();
        let mut free_at = vec![0.0f64; engine.workers().max(1)];
        let mut chunk_on_time = 0usize;
        for seq in seqs {
            let rs = &by_batch[&seq];
            let tick = tick_of(index(rs[0].id)) - t;
            let ready = (tick as f64 + 1.0) * window;
            let (wi, _) = free_at
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                .expect("non-empty pool");
            let done = free_at[wi].max(ready) + rs[0].service_time;
            free_at[wi] = done;
            let lat = done - ready;
            if lat <= window {
                chunk_on_time += rs.len();
            }
            // `done` counts from the chunk's first tick.
            let done_at = t as f64 * window + done;
            for r in rs {
                let i = index(r.id);
                latency_ms[i] = ((done_at - sched.at[i]) * 1e3) as f32;
                judged_ms[i] = (lat * 1e3) as f32;
                rate[i] = r.rate;
            }
            batches.push((e, rs[0].rate, rs.len(), rs[0].service_time));
        }
        if chunk_on_time != report.on_time {
            return Err(format!(
                "rebuilt timeline disagrees with the replay: {chunk_on_time} vs {} on time",
                report.on_time
            ));
        }
        report
            .responses
            .into_iter()
            .for_each(|r| r.logits.recycle());
        cpu_s.push(cpu()? - cpu0);
        steal.push(steal_share(
            stolen()? - steal0,
            wall0.elapsed().as_secs_f64(),
            cpus,
        ));
        first = last;
        t = t_end;
        // Outside the chunk's CPU and steal window.
        let chunk = t / chunk_ticks;
        if let Some(setup_s) = setup_s.as_deref_mut() {
            if chunk * SPREAD_SETUPS / plan.episodes != (chunk - 1) * SPREAD_SETUPS / plan.episodes
            {
                let t0 = Instant::now();
                let engine = start_engine(w);
                setup_s.push(t0.elapsed().as_secs_f64());
                engine.shutdown();
            }
        }
    }
    let after = Snapshot::parse(&ms_telemetry::global().render_prometheus());
    Ok(Pass {
        ledger,
        latency_ms,
        judged_ms,
        rate,
        cpu_s,
        steal,
        batches,
        registry: after.minus(&before),
    })
}

/// Medians over episodes. Latency counts from the scheduled arrival, as
/// on the wire workloads; a hit is a request whose wait + service after
/// its batching window fits the `T/2` processing window, the replay's own
/// on-time rule (so arrival to answer is within `T`).
fn e2e_metrics(p: &Pass, plan: &Plan, sched: &Schedule, t_ms: f64) -> (Metrics, usize) {
    let o = Outcomes {
        sched,
        latency_ms: &p.latency_ms,
        judged_ms: &p.judged_ms,
        rate: &p.rate,
        t_ms,
    };
    let eps = o.episodes(plan);
    let capacity_rps = capacity(&o.segment_verdicts(), t_ms);
    episode_medians(&eps, &p.cpu_s, &p.steal, capacity_rps)
}

/// The controllers' plans against measurement: profiled µs per sample
/// (median over the engines) and the median error of each batch's
/// `profile.predict(n, r)` at each rate.
fn plan_metrics(p: &Pass, engines: &[Engine], m: &mut Metrics) {
    for &r in &RATES {
        let rate = SliceRate::new(r);
        let tag = rate_tag(r);
        let profile = |e: usize| engines[e].controller().profile();
        let mut us: Vec<f64> = (0..engines.len())
            .map(|e| profile(e).per_sample(rate) * 1e6)
            .collect();
        m.set(format!("serving.profile_us.{tag}"), median(&mut us), "us");
        let mut err: Vec<f64> = p
            .batches
            .iter()
            .filter(|b| b.1 == r)
            .map(|&(e, _, n, service)| {
                let predicted = profile(e).predict(n, rate);
                100.0 * (service - predicted) / predicted
            })
            .collect();
        m.set(
            format!("serving.plan_error_pct.{tag}"),
            median(&mut err),
            "%",
        );
    }
}
