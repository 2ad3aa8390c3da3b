//! Infer forwards of `Linear` and `Conv2d` read persistent weight panels
//! whenever the product is large enough for `gemm`'s packed path. These
//! tests pin the contract that makes that swap invisible:
//!
//! - the output is bitwise what `gemm` on the sliced weight block returns,
//!   for every group configuration, rescale on and off, widths that are not
//!   multiples of the micro-kernel tile, a shared dimension that crosses a
//!   `KC` block, and batch sizes on both sides of the packed-path cutoff;
//! - panels never go stale: a `visit_params` write, a `weight_mut` write
//!   and an SGD step are all seen by the next Infer forward;
//! - `Mode::Train` (outputs and gradients) is untouched by whatever the
//!   Infer path packed.

use ms_nn::conv2d::{Conv2d, Conv2dConfig};
use ms_nn::layer::{Layer, Mode};
use ms_nn::linear::{Linear, LinearConfig};
use ms_nn::optim::{Sgd, SgdConfig};
use ms_nn::SliceRate;
use ms_tensor::conv::{im2col, ConvGeom};
use ms_tensor::matmul::{gemm, uses_packed_path, Trans};
use ms_tensor::ops::add_bias_rows;
use ms_tensor::{SeededRng, Tensor};

const RATES: [f32; 5] = [0.25, 0.375, 0.5, 0.75, 1.0];

fn random(dims: &[usize], seed: u64) -> Tensor {
    let mut rng = SeededRng::new(seed);
    let n = dims.iter().product();
    Tensor::from_vec(dims, (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect()).unwrap()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn linear(cfg: &LinearConfig) -> Linear {
    Linear::new("fc", cfg.clone(), &mut SeededRng::new(3))
}

/// `y = scale · x · W[0..a_out, 0..a_in]ᵀ + b` through `gemm`, as the Infer
/// forward computed it before it had panels.
fn linear_via_gemm(l: &Linear, cfg: &LinearConfig, x: &Tensor) -> Vec<f32> {
    let (a_in, a_out) = l.active_dims();
    let batch = x.numel() / a_in;
    let scale = if cfg.input_rescale && a_in < cfg.in_dim {
        cfg.in_dim as f32 / a_in as f32
    } else {
        1.0
    };
    let mut y = vec![0.0f32; batch * a_out];
    gemm(
        Trans::No,
        Trans::Yes,
        batch,
        a_out,
        a_in,
        scale,
        x.data(),
        a_in,
        l.weight().value.data(),
        cfg.in_dim,
        0.0,
        &mut y,
        a_out,
    );
    if let Some(b) = l.bias() {
        add_bias_rows(&mut y, b.value.data(), a_out, a_out);
    }
    y
}

/// The four group configurations of a sliced dense layer, with and without
/// input rescaling. `in_dim` crosses a 256-wide `KC` block and neither
/// width is a multiple of the 6×16 register tile.
fn linear_configs() -> Vec<LinearConfig> {
    let groups = [
        (None, None),
        (None, Some(8)),
        (Some(8), None),
        (Some(8), Some(8)),
    ];
    let mut cfgs = Vec::new();
    for (in_groups, out_groups) in groups {
        for input_rescale in [false, true] {
            cfgs.push(LinearConfig {
                in_dim: 300,
                out_dim: 70,
                in_groups,
                out_groups,
                bias: true,
                input_rescale,
            });
        }
    }
    cfgs
}

#[test]
fn linear_infer_matches_gemm_bitwise() {
    let (mut packed, mut unblocked) = (0, 0);
    for (c, cfg) in linear_configs().iter().enumerate() {
        let mut l = linear(cfg);
        for &r in &RATES {
            l.set_slice_rate(SliceRate::new(r));
            let (a_in, a_out) = l.active_dims();
            for batch in [1usize, 3, 7, 20] {
                if uses_packed_path(batch, a_out, a_in) {
                    packed += 1;
                } else {
                    unblocked += 1;
                }
                let x = random(&[batch, a_in], 100 + c as u64 * 31 + batch as u64);
                let want = linear_via_gemm(&l, cfg, &x);
                let got = l.forward(&x, Mode::Infer);
                assert_eq!(got.dims(), &[batch, a_out]);
                assert_eq!(
                    bits(got.data()),
                    bits(&want),
                    "config {cfg:?} r={r} batch={batch}: Infer bits differ from gemm"
                );
                // Train is the gemm path by construction.
                let train = l.forward(&x, Mode::Train);
                assert_eq!(bits(train.data()), bits(&want), "Train r={r} b={batch}");
            }
        }
    }
    assert!(
        packed > 0 && unblocked > 0,
        "both GEMM regimes must be exercised ({packed} packed, {unblocked} unblocked)"
    );
}

/// Leading dimensions beyond the batch flatten into GEMM rows on the panel
/// path exactly as they do on the `gemm` path.
#[test]
fn linear_infer_rank3_matches_gemm_bitwise() {
    let cfg = &linear_configs()[7];
    let mut l = linear(cfg);
    l.set_slice_rate(SliceRate::new(0.75));
    let (a_in, a_out) = l.active_dims();
    let x = random(&[4, 5, a_in], 9);
    assert!(uses_packed_path(20, a_out, a_in));
    let want = linear_via_gemm(&l, cfg, &x);
    let got = l.forward(&x, Mode::Infer);
    assert_eq!(got.dims(), &[4, 5, a_out]);
    assert_eq!(bits(got.data()), bits(&want));
}

fn conv_cfg(in_ch: usize, out_ch: usize, h: usize, bias: bool) -> Conv2dConfig {
    Conv2dConfig {
        in_ch,
        out_ch,
        kernel: 3,
        stride: 1,
        pad: 1,
        h,
        w: h,
        in_groups: Some(4),
        out_groups: Some(4),
        bias,
    }
}

/// The conv bias, read once up front (`visit_params` would invalidate the
/// panels on every reference computation).
fn conv_bias(l: &mut Conv2d) -> Option<Vec<f32>> {
    let mut bias = None;
    l.visit_params(&mut |p| {
        if p.name.ends_with("bias") {
            bias = Some(p.value.data().to_vec());
        }
    });
    bias
}

/// Per-sample `im2col` + `gemm` on the sliced weight block, plus bias.
fn conv_via_gemm(l: &Conv2d, cfg: &Conv2dConfig, bias: Option<&[f32]>, x: &Tensor) -> Vec<f32> {
    let geom = ConvGeom {
        h: cfg.h,
        w: cfg.w,
        kh: cfg.kernel,
        kw: cfg.kernel,
        stride: cfg.stride,
        pad: cfg.pad,
    };
    let (a_in, a_out) = l.active_channels();
    let (out_len, k2) = (geom.out_len(), cfg.kernel * cfg.kernel);
    let full_k = cfg.in_ch * k2;
    let batch = x.dims()[0];
    let mut col = vec![0.0f32; a_in * k2 * out_len];
    let mut y = vec![0.0f32; batch * a_out * out_len];
    for s in 0..batch {
        im2col(x.row(s), a_in, &geom, &mut col);
        let ys = &mut y[s * a_out * out_len..(s + 1) * a_out * out_len];
        gemm(
            Trans::No,
            Trans::No,
            a_out,
            out_len,
            a_in * k2,
            1.0,
            l.weight().value.data(),
            full_k,
            &col,
            out_len,
            0.0,
            ys,
            out_len,
        );
        if let Some(b) = bias {
            for (ch, row) in ys.chunks_mut(out_len).enumerate() {
                row.iter_mut().for_each(|v| *v += b[ch]);
            }
        }
    }
    y
}

#[test]
fn conv_infer_matches_gemm_bitwise() {
    let (mut packed, mut unblocked) = (0, 0);
    // 32 input channels × 3×3 = 288 rows of the shared dimension: crosses
    // a KC block at full width; 13 output channels are not a tile multiple.
    for (c, cfg) in [conv_cfg(32, 13, 5, true), conv_cfg(8, 13, 6, false)]
        .iter()
        .enumerate()
    {
        let mut l = Conv2d::new("conv", cfg.clone(), &mut SeededRng::new(5));
        let bias = conv_bias(&mut l);
        for &r in &RATES {
            l.set_slice_rate(SliceRate::new(r));
            let (a_in, a_out) = l.active_channels();
            let out_len = cfg.h * cfg.w;
            if uses_packed_path(a_out, out_len, a_in * 9) {
                packed += 1;
            } else {
                unblocked += 1;
            }
            for batch in [1usize, 3] {
                let x = random(
                    &[batch, a_in, cfg.h, cfg.w],
                    200 + c as u64 * 7 + batch as u64,
                );
                let want = conv_via_gemm(&l, cfg, bias.as_deref(), &x);
                let got = l.forward(&x, Mode::Infer);
                assert_eq!(got.dims(), &[batch, a_out, cfg.h, cfg.w]);
                assert_eq!(
                    bits(got.data()),
                    bits(&want),
                    "conv {c} r={r} batch={batch}: Infer bits differ from gemm"
                );
                let train = l.forward(&x, Mode::Train);
                assert_eq!(bits(train.data()), bits(&want), "conv Train r={r}");
            }
        }
    }
    assert!(
        packed > 0 && unblocked > 0,
        "both GEMM regimes must be exercised ({packed} packed, {unblocked} unblocked)"
    );
}

/// A weight write through `visit_params` invalidates the panels: the next
/// Infer forward serves the new weights, not the packed old ones.
#[test]
fn infer_panels_follow_visit_params_writes() {
    let cfg = &linear_configs()[6];
    let mut l = linear(cfg);
    let x = random(&[8, cfg.in_dim], 11);
    assert!(uses_packed_path(8, cfg.out_dim, cfg.in_dim));
    let before = l.forward(&x, Mode::Infer);
    l.visit_params(&mut |p| {
        if p.name.ends_with("weight") {
            p.value.data_mut().iter_mut().for_each(|v| *v *= -0.5);
        }
    });
    let after = l.forward(&x, Mode::Infer);
    assert_ne!(
        bits(before.data()),
        bits(after.data()),
        "stale panels served"
    );
    assert_eq!(bits(after.data()), bits(&linear_via_gemm(&l, cfg, &x)));

    let ccfg = conv_cfg(8, 13, 6, true);
    let mut conv = Conv2d::new("conv", ccfg.clone(), &mut SeededRng::new(5));
    let bias = conv_bias(&mut conv);
    let xc = random(&[2, 8, 6, 6], 12);
    let before = conv.forward(&xc, Mode::Infer);
    conv.weight_mut().value.data_mut()[0] += 1.0;
    let after = conv.forward(&xc, Mode::Infer);
    assert_ne!(bits(before.data()), bits(after.data()), "stale conv panels");
    assert_eq!(
        bits(after.data()),
        bits(&conv_via_gemm(&conv, &ccfg, bias.as_deref(), &xc))
    );
}

/// An optimiser step rewrites the weights through `visit_params`; the next
/// Infer forward must see the stepped weights.
#[test]
fn infer_panels_follow_sgd_steps() {
    let cfg = &linear_configs()[7];
    let mut l = linear(cfg);
    let mut sgd = Sgd::new(SgdConfig::default());
    let x = random(&[16, cfg.in_dim], 13);
    let mut prev = l.forward(&x, Mode::Infer);
    for step in 0..3 {
        let y = l.forward(&x, Mode::Train);
        let _ = l.backward(&y); // d(½‖y‖²)/dy = y
        sgd.step(&mut l);
        let now = l.forward(&x, Mode::Infer);
        assert_ne!(bits(prev.data()), bits(now.data()), "step {step}: stale");
        assert_eq!(
            bits(now.data()),
            bits(&linear_via_gemm(&l, cfg, &x)),
            "step {step}: Infer after SGD differs from gemm on new weights"
        );
        prev = now;
    }
}

/// Train outputs, input gradients and parameter gradients are bitwise the
/// same whether or not Infer forwards packed panels first.
#[test]
fn train_path_is_unchanged_by_packed_panels() {
    fn grads(l: &mut dyn Layer) -> Vec<u32> {
        let mut g = Vec::new();
        l.visit_params(&mut |p| g.extend(bits(p.grad.data())));
        g
    }
    let cfg = &linear_configs()[7];
    let (mut warm, mut cold) = (linear(cfg), linear(cfg));
    let ccfg = conv_cfg(32, 13, 5, true);
    let mk_conv = || Conv2d::new("conv", ccfg.clone(), &mut SeededRng::new(5));
    let (mut warm_c, mut cold_c) = (mk_conv(), mk_conv());
    for &r in &RATES {
        let rate = SliceRate::new(r);
        for l in [&mut warm, &mut cold] {
            l.set_slice_rate(rate);
        }
        let x = random(&[9, warm.active_dims().0], 14);
        let _ = warm.forward(&x, Mode::Infer);
        let (yw, yc) = (warm.forward(&x, Mode::Train), cold.forward(&x, Mode::Train));
        assert_eq!(
            bits(yw.data()),
            bits(yc.data()),
            "Linear Train output r={r}"
        );
        let (dw, dc) = (warm.backward(&yw), cold.backward(&yc));
        assert_eq!(bits(dw.data()), bits(dc.data()), "Linear dx r={r}");
        assert_eq!(grads(&mut warm), grads(&mut cold), "Linear grads r={r}");

        for l in [&mut warm_c, &mut cold_c] {
            l.set_slice_rate(rate);
        }
        let xc = random(&[2, warm_c.active_channels().0, 5, 5], 15);
        let _ = warm_c.forward(&xc, Mode::Infer);
        let (yw, yc) = (
            warm_c.forward(&xc, Mode::Train),
            cold_c.forward(&xc, Mode::Train),
        );
        assert_eq!(
            bits(yw.data()),
            bits(yc.data()),
            "Conv2d Train output r={r}"
        );
        let (dw, dc) = (warm_c.backward(&yw), cold_c.backward(&yc));
        assert_eq!(bits(dw.data()), bits(dc.data()), "Conv2d dx r={r}");
        assert_eq!(grads(&mut warm_c), grads(&mut cold_c), "Conv2d grads r={r}");
    }
}
