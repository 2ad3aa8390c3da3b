//! The served models, their inputs, and the layer and kernel passes.
//!
//! The layer pass rebuilds each model's layer sequence from `ms-nn`
//! public types, hydrates it from a `SharedWeights` capture of the model,
//! proves its output bitwise equal to the model's own forward, and then
//! times every child's `forward` at each served rate. The kernel pass
//! times `matmul::gemm` (weights packed on every call, as the serving
//! path does) against `panels::gemm_packed_b` (panels packed once).

use crate::metrics::Metrics;
use crate::stats::median;
use crate::trace::Tracer;
use ms_core::inference::batched_sliced_forward;
use ms_core::SliceRate;
use ms_models::mlp::{Mlp, MlpConfig};
use ms_models::vgg::{Vgg, VggConfig};
use ms_nn::activation::Relu;
use ms_nn::conv2d::{Conv2d, Conv2dConfig};
use ms_nn::linear::{Linear, LinearConfig};
use ms_nn::norm::GroupNorm;
use ms_nn::pool::{GlobalAvgPool, MaxPool2d};
use ms_nn::{Layer, Mode, SharedWeights};
use ms_tensor::matmul::{gemm, Trans};
use ms_tensor::panels::{gemm_packed_b, PackedB};
use ms_tensor::{SeededRng, Tensor};
use std::time::{Duration, Instant};

/// The slice rates every served model offers (the shard's list).
pub const RATES: [f32; 4] = [0.25, 0.5, 0.75, 1.0];

/// Metric-name tag of a rate: `0.25 → "r025"`.
pub fn rate_tag(r: f32) -> String {
    format!("r{:03}", (r * 100.0).round() as u32)
}

/// Weight seed of every model: inputs and arrivals vary with the run's
/// seed, the model does not.
pub const WEIGHT_SEED: u64 = 17;

#[derive(Debug, Clone)]
pub enum ModelSpec {
    Mlp(MlpConfig),
    Vgg(VggConfig),
}

impl ModelSpec {
    pub fn mlp(input_dim: usize, hidden: &[usize], classes: usize, groups: usize) -> ModelSpec {
        ModelSpec::Mlp(MlpConfig {
            input_dim,
            hidden_dims: hidden.to_vec(),
            num_classes: classes,
            groups,
            dropout: 0.0,
            input_rescale: true,
        })
    }

    /// The bench-scale VGG: conv, GroupNorm and pooling on 3×12×12 inputs.
    pub fn bench_vgg() -> ModelSpec {
        ModelSpec::Vgg(VggConfig {
            in_channels: 3,
            image_size: 12,
            stages: vec![(1, 8), (1, 16), (2, 32)],
            num_classes: 8,
            groups: 8,
            width_multiplier: 1.0,
        })
    }

    /// The model exactly as its server builds it from `seed`.
    pub fn build(&self, seed: u64) -> Box<dyn Layer + Send> {
        let mut rng = SeededRng::new(seed);
        match self {
            ModelSpec::Mlp(c) => Box::new(Mlp::new(c, &mut rng)),
            ModelSpec::Vgg(c) => Box::new(Vgg::new(c, &mut rng)),
        }
    }

    /// Per-request input shape.
    pub fn sample_dims(&self) -> Vec<usize> {
        match self {
            ModelSpec::Mlp(c) => vec![c.input_dim],
            ModelSpec::Vgg(c) => vec![c.in_channels, c.image_size, c.image_size],
        }
    }

    pub fn classes(&self) -> usize {
        match self {
            ModelSpec::Mlp(c) => c.num_classes,
            ModelSpec::Vgg(c) => c.num_classes,
        }
    }

    /// The model's layer sequence rebuilt from `ms-nn` public types and
    /// hydrated from `weights`.
    pub fn chain(&self, weights: &SharedWeights) -> Vec<ChainLayer> {
        let mut rng = SeededRng::new(0);
        let mut out: Vec<ChainLayer> = Vec::new();
        let linear = |name: &str, in_dim, out_dim, in_groups, out_groups, rng: &mut SeededRng| {
            Linear::new(
                name,
                LinearConfig {
                    in_dim,
                    out_dim,
                    in_groups,
                    out_groups,
                    bias: true,
                    input_rescale: true,
                },
                rng,
            )
        };
        match self {
            ModelSpec::Mlp(c) => {
                let mut in_dim = c.input_dim;
                let mut in_groups = None;
                for (i, &h) in c.hidden_dims.iter().enumerate() {
                    let name = format!("fc{i}");
                    let l = linear(&name, in_dim, h, in_groups, Some(c.groups), &mut rng);
                    out.push(ChainLayer::new(name, Kind::Named, Box::new(l)));
                    out.push(ChainLayer::new("relu", Kind::Glue, Box::new(Relu::new())));
                    in_dim = h;
                    in_groups = Some(c.groups);
                }
                let head = linear("head", in_dim, c.num_classes, in_groups, None, &mut rng);
                out.push(ChainLayer::new("head", Kind::Named, Box::new(head)));
            }
            ModelSpec::Vgg(c) => {
                let mut in_ch = c.in_channels;
                let mut in_groups = None;
                let mut hw = c.image_size;
                for (si, &(n_convs, _)) in c.stages.iter().enumerate() {
                    let width = c.stage_width(si);
                    for ci in 0..n_convs {
                        let name = format!("s{si}c{ci}");
                        let conv = Conv2d::new(
                            name.clone(),
                            Conv2dConfig {
                                in_ch,
                                out_ch: width,
                                kernel: 3,
                                stride: 1,
                                pad: 1,
                                h: hw,
                                w: hw,
                                in_groups,
                                out_groups: Some(c.groups),
                                bias: false,
                            },
                            &mut rng,
                        );
                        let gn = GroupNorm::new(format!("{name}.gn"), width, c.groups);
                        out.push(ChainLayer::new(name.clone(), Kind::Named, Box::new(conv)));
                        out.push(ChainLayer::new(
                            format!("{name}.gn"),
                            Kind::Norm,
                            Box::new(gn),
                        ));
                        out.push(ChainLayer::new("relu", Kind::Glue, Box::new(Relu::new())));
                        in_ch = width;
                        in_groups = Some(c.groups);
                    }
                    out.push(ChainLayer::new(
                        "maxpool",
                        Kind::Glue,
                        Box::new(MaxPool2d::new(2, 2)),
                    ));
                    hw /= 2;
                }
                out.push(ChainLayer::new(
                    "gap",
                    Kind::Glue,
                    Box::new(GlobalAvgPool::new()),
                ));
                let head = linear("head", in_ch, c.num_classes, in_groups, None, &mut rng);
                out.push(ChainLayer::new("head", Kind::Named, Box::new(head)));
            }
        }
        for l in &mut out {
            weights.hydrate(l.layer.as_mut());
        }
        out
    }
}

/// How a chain layer is reported: under its own name, or summed into
/// `nn.norm` / `nn.glue`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Named,
    Norm,
    Glue,
}

pub struct ChainLayer {
    /// Span and metric name (leaked once: span names are `'static`).
    pub name: &'static str,
    pub kind: Kind,
    pub layer: Box<dyn Layer + Send>,
}

impl ChainLayer {
    fn new(name: impl Into<String>, kind: Kind, layer: Box<dyn Layer + Send>) -> ChainLayer {
        ChainLayer {
            name: name.into().leak(),
            kind,
            layer,
        }
    }
}

/// `count` distinct seeded inputs of shape `dims`, values in `[-1, 1)`.
pub fn random_inputs(dims: &[usize], count: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = SeededRng::new(seed ^ 0x5eed_1a7e);
    let len: usize = dims.iter().product();
    (0..count)
        .map(|_| {
            let data = (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect();
            Tensor::from_vec(dims.to_vec(), data).expect("input shape")
        })
        .collect()
}

fn stack(inputs: &[Tensor]) -> Tensor {
    let mut dims = vec![inputs.len()];
    dims.extend_from_slice(inputs[0].dims());
    let mut data = Vec::with_capacity(inputs.len() * inputs[0].numel());
    for x in inputs {
        data.extend_from_slice(x.data());
    }
    Tensor::from_vec(dims, data).expect("stacked batch")
}

fn set_rate(chain: &mut [ChainLayer], r: f32) {
    for l in chain {
        l.layer.set_slice_rate(SliceRate::new(r));
    }
}

/// Runs `x` through the chain at its current rates, timing every child
/// in a span under `parent`. Returns the output and each child's µs.
fn chain_forward(chain: &mut [ChainLayer], x: &Tensor, tracer: &mut Tracer) -> (Tensor, Vec<f64>) {
    let pass = tracer.begin("nn.chain", 0, 0);
    let mut times = Vec::with_capacity(chain.len());
    let mut cur: Option<Tensor> = None;
    for l in chain.iter_mut() {
        let input = cur.as_ref().unwrap_or(x);
        let id = tracer.begin(l.name, pass, 0);
        let y = l.layer.forward(input, Mode::Infer);
        times.push(tracer.end(id));
        if let Some(prev) = cur.replace(y) {
            prev.recycle();
        }
    }
    tracer.end(pass);
    (cur.expect("non-empty chain"), times)
}

/// Repetitions of a timed call: at least `min_reps`, and until `budget`
/// of wall time is spent.
fn reps_for(min_reps: usize, budget: Duration, started: Instant, done: usize) -> bool {
    done < min_reps || started.elapsed() < budget
}

/// Layer pass over `spec`: bitwise-equality proof, per-rate batch cost
/// at b8/b128 (`core.*`), per-layer cost at b128 (`nn.*`). Errors when the
/// rebuilt chain does not reproduce the model's output bitwise.
pub fn layer_pass(spec: &ModelSpec, seed: u64, tracer: &mut Tracer) -> Result<Metrics, String> {
    let mut model = spec.build(WEIGHT_SEED);
    let weights = SharedWeights::capture(model.as_mut());
    let mut chain = spec.chain(&weights);
    let inputs = random_inputs(&spec.sample_dims(), 128, seed ^ 0x1a7e);
    let mut m = Metrics::default();

    for &r in &RATES {
        let want = batched_sliced_forward(model.as_mut(), &inputs[..8], SliceRate::new(r));
        set_rate(&mut chain, r);
        let (got, _) = chain_forward(&mut chain, &stack(&inputs[..8]), tracer);
        let flat: Vec<u32> = want
            .iter()
            .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
            .collect();
        let mine: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
        if flat != mine {
            return Err(format!(
                "layer chain differs from the model's forward at r={r}"
            ));
        }
    }

    let budget = Duration::from_millis(120);
    let mut per_sample_b128 = [0.0f64; 4];
    for &b in &[8usize, 128] {
        for (ri, &r) in RATES.iter().enumerate() {
            let mut t = Vec::new();
            let start = Instant::now();
            while reps_for(5, budget, start, t.len()) {
                let id = tracer.begin("core.batched_sliced_forward", 0, 0);
                let out = batched_sliced_forward(model.as_mut(), &inputs[..b], SliceRate::new(r));
                t.push(tracer.end(id));
                out.into_iter().for_each(Tensor::recycle);
            }
            let us = median(&mut t) / b as f64;
            m.set(format!("core.us_per_sample.{}.b{b}", rate_tag(r)), us, "us");
            if b == 128 {
                per_sample_b128[ri] = us;
            }
        }
    }

    let full_macs = model.flops_per_sample() as f64;
    for (ri, &r) in RATES.iter().enumerate().take(3) {
        model.set_slice_rate(SliceRate::new(r));
        let mac_fraction = model.flops_per_sample() as f64 / full_macs;
        model.set_slice_rate(SliceRate::new(1.0));
        let time_fraction = per_sample_b128[ri] / per_sample_b128[3];
        m.set(
            format!("core.time_fraction.{}", rate_tag(r)),
            time_fraction,
            "ratio",
        );
        eprintln!(
            "  Eq. 3 at r={r}: time {:.3} of full width, MACs {:.3}, r^2 {:.4}",
            time_fraction,
            mac_fraction,
            r * r
        );
    }

    let batch = stack(&inputs);
    let mut stack_split = Vec::new();
    for &r in &RATES {
        set_rate(&mut chain, r);
        let mut per_layer: Vec<Vec<f64>> = vec![Vec::new(); chain.len()];
        let start = Instant::now();
        let mut reps = 0;
        while reps_for(5, budget, start, reps) {
            let (y, times) = chain_forward(&mut chain, &batch, tracer);
            y.recycle();
            if r == 1.0 {
                // Paired with a whole-model call on the same batch: the
                // difference is the stack/split work around the layers.
                let id = tracer.begin("core.batched_sliced_forward", 0, 0);
                let out = batched_sliced_forward(model.as_mut(), &inputs, SliceRate::new(1.0));
                let whole = tracer.end(id);
                out.into_iter().for_each(Tensor::recycle);
                stack_split.push(whole - times.iter().sum::<f64>());
            }
            for (slot, t) in per_layer.iter_mut().zip(times) {
                slot.push(t);
            }
            reps += 1;
        }
        let tag = rate_tag(r);
        let (mut norm, mut glue) = (vec![0.0; reps], vec![0.0; reps]);
        for (l, times) in chain.iter().zip(per_layer.iter_mut()) {
            match l.kind {
                Kind::Named => {
                    let us = median(&mut times.clone());
                    m.set(format!("nn.{}.us.{tag}", l.name), us, "us");
                    if r == 1.0 {
                        let gflops = 2.0 * l.layer.flops_per_sample() as f64 * 128.0 / (us * 1e3);
                        m.set(format!("nn.{}.gflops.r100", l.name), gflops, "GFLOP/s");
                    }
                }
                Kind::Norm => norm.iter_mut().zip(times.iter()).for_each(|(a, t)| *a += t),
                Kind::Glue => glue.iter_mut().zip(times.iter()).for_each(|(a, t)| *a += t),
            }
        }
        m.set(format!("nn.norm.us.{tag}"), median(&mut norm), "us");
        m.set(format!("nn.glue.us.{tag}"), median(&mut glue), "us");
    }
    set_rate(&mut chain, 1.0);
    m.set("core.stack_split_us.b128", median(&mut stack_split), "us");
    Ok(m)
}

/// Kernel pass at the MLP's fc1 shape (1024 → 1024): GFLOP/s of `gemm`,
/// which packs the weight operand on every call, and of `gemm_packed_b`
/// over panels packed once, at batch 8 and 128. Errors when the two
/// disagree beyond float reassociation.
pub fn kernel_pass(seed: u64, tracer: &mut Tracer) -> Result<Metrics, String> {
    const K: usize = 1024;
    const N: usize = 1024;
    let mut rng = SeededRng::new(seed ^ 0x6e33);
    let w: Vec<f32> = (0..N * K).map(|_| rng.uniform(-0.05, 0.05)).collect();
    let mut packed = PackedB::new();
    tracer.span("tensor.pack_b", 0, || packed.pack(Trans::Yes, &w, K, K, N));
    let mut m = Metrics::default();
    let budget = Duration::from_millis(150);
    for &b in &[8usize, 128] {
        let a: Vec<f32> = (0..b * K).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let mut c_plain = vec![0.0f32; b * N];
        let mut c_packed = vec![0.0f32; b * N];
        let flops = 2.0 * (b * K * N) as f64;
        let (mut t_plain, mut t_packed) = (Vec::new(), Vec::new());
        let start = Instant::now();
        while reps_for(5, budget, start, t_plain.len()) {
            let id = tracer.begin("tensor.gemm", 0, 0);
            gemm(
                Trans::No,
                Trans::Yes,
                b,
                N,
                K,
                1.0,
                &a,
                K,
                &w,
                K,
                0.0,
                &mut c_plain,
                N,
            );
            t_plain.push(tracer.end(id));
            let id = tracer.begin("tensor.gemm_packed_b", 0, 0);
            gemm_packed_b(b, 0, K, 0, N, 1.0, &a, K, &packed, 0.0, &mut c_packed, N);
            t_packed.push(tracer.end(id));
        }
        std::hint::black_box((&c_plain, &c_packed));
        let worst = c_plain
            .iter()
            .zip(&c_packed)
            .map(|(x, y)| (x - y).abs() / (1.0 + x.abs()))
            .fold(0.0f32, f32::max);
        if worst > 1e-4 {
            return Err(format!("gemm and gemm_packed_b disagree at b={b}: {worst}"));
        }
        m.set(
            format!("tensor.gemm_gflops.b{b}"),
            flops / (median(&mut t_plain) * 1e3),
            "GFLOP/s",
        );
        m.set(
            format!("tensor.gemm_packed_gflops.b{b}"),
            flops / (median(&mut t_packed) * 1e3),
            "GFLOP/s",
        );
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chains_reproduce_their_models_bitwise() {
        let mut t = Tracer::new(true);
        let small = ModelSpec::mlp(8, &[32], 4, 4);
        let m = layer_pass(&small, 3, &mut t).expect("mlp chain");
        assert!(m.get("nn.fc0.us.r100").is_some());
        let m = layer_pass(&ModelSpec::bench_vgg(), 3, &mut t).expect("vgg chain");
        assert!(m.get("nn.s2c1.gflops.r100").is_some());
    }

    #[test]
    fn rate_tags() {
        assert_eq!(rate_tag(0.25), "r025");
        assert_eq!(rate_tag(1.0), "r100");
    }
}
