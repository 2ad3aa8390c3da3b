//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload once with tracing off and prints the
//! end-to-end metrics. `--trace 1` runs it untraced and then traced,
//! adds the layer, kernel and codec passes, writes the spans to
//! `perfbench/out/spans_<workload>.csv`, and prints the per-layer
//! metrics, including the tracing overhead (traced − untraced) of each
//! end-to-end metric. The last stdout line is the JSON result; a readable
//! table goes to stderr. Shard workloads need `MS_SHARD_BIN` (the
//! `shard_server` binary); `perfbench/run.py` builds it and sets it.
//!
//! Which end-to-end metric each per-layer metric should move, and on
//! which workload, is in `LAYER_MAP` below.

mod check;
mod metrics;
mod models;
mod procfs;
mod replay;
mod schedule;
mod scrape;
mod shard;
mod stats;
mod trace;

use metrics::Metrics;
use models::{rate_tag, ModelSpec, RATES};
use schedule::{Plan, Segment};
use std::path::PathBuf;
use std::process::ExitCode;

/// Layer metric prefix → the end-to-end metrics it should move, and where.
const LAYER_MAP: &[(&str, &str)] = &[
    ("loadgen.*", "run validity and failure accounting, all workloads"),
    ("cluster.*", "capacity_rps, cpu_us_per_request and setup_s on wire_small; barely mlp_flash_crowd"),
    ("net.*", "capacity_rps and latency_p99_ms on wire_small"),
    ("serving.*", "deadline_hit_ratio, latency_p99_ms, served_rate_mean on mlp_flash_crowd and vgg_replay"),
    ("core.*, nn.*, tensor.*", "served_rate_mean, cpu_us_per_request, deadline_hit_ratio on mlp_flash_crowd (b8 in calm phases) and vgg_replay; not wire_small"),
    ("trace.overhead.*", "traced minus untraced value of each end-to-end metric"),
];

/// End-to-end metrics whose tracing overhead is reported.
const RUN_METRICS: [(&str, &str); 7] = [
    ("deadline_hit_ratio", "ratio"),
    ("answered_ratio", "ratio"),
    ("served_rate_mean", "rate"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("capacity_rps", "1/s"),
    ("cpu_us_per_request", "us"),
];

/// Every per-layer metric, in the order `BENCHMARK.json` lists them. A
/// workload reports 0 for a layer it does not have (no wire on
/// `vgg_replay`, no conv layers on the MLPs, no planner view of a shard's
/// profile).
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |n: String, u: &'static str| v.push((n, u));
    for (n, u) in [
        ("loadgen.lag_p99_ms", "ms"),
        ("loadgen.self_us_per_request", "us"),
        ("loadgen.episodes_disturbed", "count"),
        ("loadgen.sent", "count"),
        ("loadgen.delivered", "count"),
        ("loadgen.shed", "count"),
        ("loadgen.lost", "count"),
        ("loadgen.mismatched", "count"),
        ("cluster.spawn_s", "s"),
        ("cluster.dispatch_us_p50", "us"),
        ("cluster.dispatch_us_p99", "us"),
        ("cluster.flush_us_p50", "us"),
        ("cluster.pump_us_per_response", "us"),
        ("net.request_encode_us", "us"),
        ("net.response_decode_us", "us"),
        ("net.server_miss_ratio", "ratio"),
        ("serving.batches", "count"),
        ("serving.batch_size_mean", "count"),
        ("serving.shed_admission", "count"),
        ("serving.shed_backpressure", "count"),
    ] {
        add(n.to_string(), u);
    }
    for &r in &RATES {
        let t = rate_tag(r);
        add(format!("serving.batch_share.{t}"), "ratio");
        add(format!("serving.service_ms_p50.{t}"), "ms");
        add(format!("serving.service_ms_p99.{t}"), "ms");
        add(format!("serving.profile_us.{t}"), "us");
        add(format!("serving.plan_error_pct.{t}"), "%");
    }
    for &r in &RATES {
        for b in [8, 128] {
            add(format!("core.us_per_sample.{}.b{b}", rate_tag(r)), "us");
        }
    }
    for &r in &RATES[..3] {
        add(format!("core.time_fraction.{}", rate_tag(r)), "ratio");
    }
    add("core.stack_split_us.b128".into(), "us");
    for layer in [
        "fc0", "fc1", "s0c0", "s1c0", "s2c0", "s2c1", "head", "norm", "glue",
    ] {
        for &r in &RATES {
            add(format!("nn.{layer}.us.{}", rate_tag(r)), "us");
        }
    }
    for layer in ["fc0", "fc1", "s0c0", "s1c0", "s2c0", "s2c1", "head"] {
        add(format!("nn.{layer}.gflops.r100"), "GFLOP/s");
    }
    for b in [8, 128] {
        add(format!("tensor.gemm_gflops.b{b}"), "GFLOP/s");
        add(format!("tensor.gemm_packed_gflops.b{b}"), "GFLOP/s");
    }
    add("tensor.pool_hit_ratio".into(), "ratio");
    for (n, u) in RUN_METRICS {
        add(format!("trace.overhead.{n}"), u);
    }
    v
}

/// Where a traced run writes its spans.
pub fn trace_path(workload: &str) -> PathBuf {
    PathBuf::from("perfbench/out").join(format!("spans_{workload}.csv"))
}

enum Workload {
    Wire(shard::WireWorkload),
    Replay(replay::ReplayWorkload),
}

/// The workloads. Rates, deadlines and shapes are absolute numbers: they
/// are never scaled by a measurement of the program, so a faster program
/// meets the same load.
fn workload(name: &str) -> Option<Workload> {
    let seg = |rps: f64, secs: f64| Segment { rps, secs };
    Some(match name {
        // Compute is ~0.2 µs per sample: the cost of a request is client,
        // router, codec, reactor and engine queue. A steady phase at
        // about half the knee, then five staircases of rising rates
        // through it.
        "wire_small" => Workload::Wire(shard::WireWorkload {
            model: ModelSpec::mlp(8, &[32], 4, 4),
            latency_us: 20_000,
            inputs: 4096,
            plan: Plan {
                episode: vec![seg(60_000.0, 0.2)],
                episodes: 20,
                staircase: STAIRCASE_RPS
                    .iter()
                    .map(|&r| seg(r, 0.2))
                    .chain([seg(1_000.0, 0.3)])
                    .collect(),
                staircases: 5,
            },
        }),
        // Compute dominates (the b8 calm batches cost ~0.2 ms per sample
        // because the serving path packs weights on every call), and the
        // same Linear/GEMM layers run at small and large batch sizes.
        // The crowd stays below the full-width capacity the controller
        // plans with (~15k req/s): on a 2-core host, crowds above it
        // overload the shard and the figures go bimodal.
        "mlp_flash_crowd" => Workload::Wire(shard::WireWorkload {
            model: ModelSpec::mlp(64, &[1024, 1024], 8, 8),
            latency_us: 20_000,
            inputs: 128,
            plan: Plan {
                episode: vec![seg(1_000.0, 0.35), seg(3_000.0, 0.25)],
                episodes: 16,
                staircase: Vec::new(),
                staircases: 0,
            },
        }),
        // The only conv/GroupNorm workload, in-process: no wire, no
        // timers. Each episode is a diurnal swing on the virtual clock.
        "vgg_replay" => Workload::Replay(replay::ReplayWorkload {
            model: ModelSpec::bench_vgg(),
            replicas: 2,
            latency: 0.040,
            inputs: 64,
            episode: diurnal(),
            episodes_per_second: 2.8,
        }),
        _ => return None,
    })
}

/// `wire_small` staircase steps (req/s), 10 % apart, around today's knee
/// (100k–210k req/s on a 2-core host, depending on how busy the host is).
/// Each staircase ends in a 1k req/s rest that drains the backlog the top
/// steps leave.
const STAIRCASE_RPS: [f64; 15] = [
    80_000.0, 88_000.0, 97_000.0, 107_000.0, 117_000.0, 129_000.0, 142_000.0, 156_000.0, 172_000.0,
    189_000.0, 208_000.0, 229_000.0, 252_000.0, 277_000.0, 305_000.0,
];

/// One `vgg_replay` episode on the virtual clock: a diurnal swing
/// between 1k and 5k req/s in 0.5 s steps. Every startup calibration
/// seen plans these batches at full width; loads that need slicing get a
/// rate that flips with the calibration (see README.md).
fn diurnal() -> Vec<Segment> {
    let steps = 6;
    (0..steps)
        .map(|s| {
            let phase = 2.0 * std::f64::consts::PI * s as f64 / steps as f64;
            Segment {
                rps: 1_000.0 + 4_000.0 * 0.5 * (1.0 - phase.cos()),
                secs: 0.5,
            }
        })
        .collect()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let w =
        workload(&args.workload).ok_or_else(|| format!("unknown workload {}", args.workload))?;
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let (mut m, verdicts, model) = match &w {
        Workload::Wire(w) => {
            let o = shard::run(&args.workload, w, args.seed, args.seconds, args.trace)?;
            (o.metrics, o.verdicts, w.model.clone())
        }
        Workload::Replay(w) => {
            let o = replay::run(&args.workload, w, args.seed, args.seconds, args.trace)?;
            (o.metrics, o.verdicts, w.model.clone())
        }
    };
    let attempted: u64 = verdicts.iter().map(|v| v.sent).sum();
    let mut correct = verdicts.iter().all(|v| v.ok());
    for v in &verdicts {
        eprintln!(
            "  pass: sent {} delivered {} shed {} lost {} mismatched {}",
            v.sent, v.delivered, v.shed, v.lost, v.mismatched
        );
    }
    if args.trace {
        for (layer, moves) in LAYER_MAP {
            eprintln!("  {layer:<24} should move: {moves}");
        }
        let mut tracer = trace::Tracer::new(true);
        match models::layer_pass(&model, args.seed, &mut tracer) {
            Ok(x) => m.extend(x),
            Err(e) => {
                eprintln!("  layer pass: {e}");
                correct = false;
            }
        }
        match models::kernel_pass(args.seed, &mut tracer) {
            Ok(x) => m.extend(x),
            Err(e) => {
                eprintln!("  kernel pass: {e}");
                correct = false;
            }
        }
        let names = per_layer_names();
        for (k, _) in m.iter() {
            if !names.iter().any(|(n, _)| n == k) {
                return Err(format!("metric {k} is not in the per-layer list"));
            }
        }
        let mut full = Metrics::default();
        for (n, u) in names {
            full.set(n.clone(), m.get(&n).unwrap_or(0.0), u);
        }
        m = full;
    }
    for (k, (v, u)) in m.iter() {
        eprintln!("  {k:<40} {v:>14.6} {u}");
    }
    let failed: u64 = verdicts.iter().map(|v| v.lost + v.mismatched).sum();
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        m.to_json()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_is_defined() {
        for name in ["wire_small", "mlp_flash_crowd", "vgg_replay"] {
            assert!(workload(name).is_some(), "{name}");
        }
    }

    /// `BENCHMARK.json` lists exactly the metrics this binary prints.
    #[test]
    fn benchmark_json_matches_the_metric_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let entry = |n: &str, u: &str| format!("\"name\": \"{n}\",\n      \"unit\": \"{u}\"");
        let mut listed = 0;
        for (n, u) in per_layer_names() {
            assert!(json.contains(&entry(&n, u)), "per_layer {n} ({u}) missing");
            listed += 1;
        }
        for (n, u) in RUN_METRICS
            .iter()
            .chain(&[("setup_s", "s"), ("peak_rss_mb", "MB")])
        {
            assert!(json.contains(&entry(n, u)), "end_to_end {n} ({u}) missing");
            listed += 1;
        }
        let workloads = ["wire_small", "mlp_flash_crowd", "vgg_replay"];
        assert_eq!(json.matches("\"name\":").count(), listed + workloads.len());
    }

    #[test]
    fn per_layer_names_are_unique_and_bounded() {
        let names = per_layer_names();
        let mut seen = std::collections::HashSet::new();
        for (n, _) in &names {
            assert!(seen.insert(n.clone()), "duplicate {n}");
            assert!(n.len() <= 64);
        }
        assert!(names.len() <= 128, "{}", names.len());
    }
}
