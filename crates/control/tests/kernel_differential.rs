//! Pinning of the batched control kernels (DESIGN.md §10).
//!
//! Contract:
//! * `jitter_margin`, `stability_curve` and `StabilityCurveBatch` are
//!   *bit-identical* to `csa_control::reference`, the dense
//!   per-frequency sweep;
//! * `design_lqg` and `delay_margin` have one implementation each, so
//!   they are pinned by value: one FNV-1a digest per pool plant over the
//!   controller, the gains, the cost-to-go and the delay margin, written
//!   out below (the way `margin_artifact.rs` pins the margin artifact).

use csa_control::{
    delay_margin, design_lqg, jitter_margin, plants, reference, stability_curve, StabilityCurve,
    StabilityCurveBatch, StabilityFit,
};

/// Geometric mid-point of a plant's period range.
fn mid_period(range: (f64, f64)) -> f64 {
    (range.0 * range.1).sqrt()
}

/// Geometric grid over a period range, mirroring the margin-table grids.
fn period_grid(range: (f64, f64), points: usize) -> Vec<f64> {
    (0..points)
        .map(|k| range.0 * (range.1 / range.0).powf(k as f64 / (points - 1) as f64))
        .collect()
}

/// A curve's bits: delay margin, period, then each point's latency and
/// jitter margin.
fn curve_bits(c: &StabilityCurve) -> Vec<u64> {
    let points = c.points().iter();
    [c.delay_margin().to_bits(), c.period().to_bits()]
        .into_iter()
        .chain(points.flat_map(|p| [p.latency.to_bits(), p.jitter_margin.to_bits()]))
        .collect()
}

/// FNV-1a over the words' little-endian bytes, as 16 hex digits.
fn fnv1a(words: impl Iterator<Item = u64>) -> String {
    let h = words
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
    format!("{h:016x}")
}

/// Each pool plant's LQG design and stability curve at its mid period.
/// The curve's jitter margins equal the reference sweep's bit for bit.
/// The design and the delay margin have one implementation each, so they
/// are pinned by value: one digest per plant over the shape and bits of
/// the controller's `A`, `B`, `C`, `K`, `Kf` and the cost-to-go, then the
/// delay margin. The digests were recorded while a separate one-shot
/// synthesis and delay margin still existed, so they hold the bits those
/// produced.
#[test]
fn exact_pipeline_bit_identical_to_reference_across_pool() {
    let mut digests = Vec::new();
    for bp in &plants::benchmark_pool().unwrap() {
        let h = mid_period(bp.period_range);
        let lqg = design_lqg(&bp.plant, &bp.weights, h, 0.0).unwrap();
        let curve = stability_curve(&bp.plant, &lqg.controller, h, 7).unwrap();
        let curve_ref = reference::stability_curve(&bp.plant, &lqg.controller, h, 7).unwrap();
        assert_eq!(curve_bits(&curve), curve_bits(&curve_ref), "{}", bp.name);

        let c = &lqg.controller;
        let mats = [
            c.a(),
            c.b(),
            c.c(),
            &lqg.feedback_gain,
            &lqg.kalman_gain,
            &lqg.cost_to_go,
        ];
        let words = mats.into_iter().flat_map(|m| {
            let shape = [m.rows() as u64, m.cols() as u64];
            shape
                .into_iter()
                .chain(m.as_slice().iter().map(|v| v.to_bits()))
        });
        let dm = curve.delay_margin().to_bits();
        digests.push(format!("{} {}", bp.name, fnv1a(words.chain([dm]))));
    }
    assert_eq!(
        digests,
        [
            "dc_servo ab0ffddbb4aa47d0",
            "integrator 607640fa61f5c96a",
            "double_integrator 6ba919816b47be2e",
            "first_order_lag ffb34fe5a6c4e5bc",
            "second_order_lag d692288661720388",
            "oscillator 5513297c73437dc5",
            "pendulum 788024072be10224",
        ]
    );
}

#[test]
fn exact_scalar_kernels_bit_identical_to_reference() {
    let pool = plants::benchmark_pool().unwrap();
    let bp = pool.iter().find(|p| p.name == "dc_servo").unwrap();
    let h = mid_period(bp.period_range);
    let lqg = design_lqg(&bp.plant, &bp.weights, h, 0.0).unwrap();
    let dm = delay_margin(&bp.plant, &lqg.controller, h).unwrap();
    for &l in &[0.0, 0.3 * dm, 0.8 * dm, 1.2 * dm] {
        let j = jitter_margin(&bp.plant, &lqg.controller, h, l).unwrap();
        let j_ref = reference::jitter_margin(&bp.plant, &lqg.controller, h, l).unwrap();
        assert_eq!(j.to_bits(), j_ref.to_bits(), "jitter margin at L={l}");
    }
}

#[test]
fn batch_exact_cells_bit_identical_to_one_shot_pipeline() {
    let pool = plants::benchmark_pool().unwrap();
    let mut batch = StabilityCurveBatch::new();
    for bp in &pool {
        let grid = period_grid(bp.period_range, 3);
        let cells = batch.curve_grid(&bp.plant, &bp.weights, &grid, 0.0, 5);
        for (&h, cell) in grid.iter().zip(&cells) {
            let one_shot = match design_lqg(&bp.plant, &bp.weights, h, 0.0) {
                Ok(lqg) => match stability_curve(&bp.plant, &lqg.controller, h, 5) {
                    Ok(curve) if curve.delay_margin() > 0.0 => {
                        let fit = StabilityFit::from_curve(&curve);
                        Some((curve, fit))
                    }
                    _ => None,
                },
                Err(_) => None,
            };
            match (cell, &one_shot) {
                (Some((curve, fit)), Some((curve1, fit1))) => {
                    assert_eq!(curve_bits(curve), curve_bits(curve1), "{} h={h}", bp.name);
                    assert_eq!(fit.a.to_bits(), fit1.a.to_bits(), "{}: fit a", bp.name);
                    assert_eq!(fit.b.to_bits(), fit1.b.to_bits(), "{}: fit b", bp.name);
                }
                (None, None) => {}
                (got, want) => panic!(
                    "{} h={h}: batch cell presence {} vs one-shot {}",
                    bp.name,
                    got.is_some(),
                    want.is_some()
                ),
            }
        }
    }
}
