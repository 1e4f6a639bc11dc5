//! Differential pinning of the batched control kernels against the
//! retained one-shot references (DESIGN.md §10).
//!
//! Contract: `design_lqg`, `jitter_margin`, `delay_margin`,
//! `stability_curve` and `StabilityCurveBatch` are *bit-identical* to
//! `csa_control::reference`.

use csa_control::{
    delay_margin, design_lqg, jitter_margin, plants, reference, stability_curve, StabilityCurve,
    StabilityCurveBatch, StabilityFit,
};
use csa_linalg::Mat;

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

fn assert_curve_bits_eq(a: &StabilityCurve, b: &StabilityCurve, what: &str) {
    assert_eq!(
        a.delay_margin().to_bits(),
        b.delay_margin().to_bits(),
        "{what}: delay margin differs"
    );
    assert_eq!(a.period().to_bits(), b.period().to_bits(), "{what}: period");
    assert_eq!(a.points().len(), b.points().len(), "{what}: point count");
    for (pa, pb) in a.points().iter().zip(b.points()) {
        assert_eq!(
            pa.latency.to_bits(),
            pb.latency.to_bits(),
            "{what}: latency differs at L={}",
            pa.latency
        );
        assert_eq!(
            pa.jitter_margin.to_bits(),
            pb.jitter_margin.to_bits(),
            "{what}: jitter margin differs at L={}",
            pa.latency
        );
    }
}

fn assert_mat_bits_eq(a: &Mat, b: &Mat, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            assert_eq!(
                a[(i, j)].to_bits(),
                b[(i, j)].to_bits(),
                "{what}: mismatch at ({i},{j})"
            );
        }
    }
}

#[test]
fn exact_pipeline_bit_identical_to_reference_across_pool() {
    let pool = plants::benchmark_pool().unwrap();
    for bp in &pool {
        let h = mid_period(bp.period_range);
        let lqg = design_lqg(&bp.plant, &bp.weights, h, 0.0).unwrap();
        let lqg_ref = reference::design_lqg(&bp.plant, &bp.weights, h, 0.0).unwrap();
        assert_mat_bits_eq(
            lqg.controller.a(),
            lqg_ref.controller.a(),
            &format!("{}: controller A", bp.name),
        );
        assert_mat_bits_eq(
            lqg.controller.b(),
            lqg_ref.controller.b(),
            &format!("{}: controller B", bp.name),
        );
        assert_mat_bits_eq(
            lqg.controller.c(),
            lqg_ref.controller.c(),
            &format!("{}: controller C", bp.name),
        );
        assert_mat_bits_eq(
            &lqg.feedback_gain,
            &lqg_ref.feedback_gain,
            &format!("{}: K", bp.name),
        );
        assert_mat_bits_eq(
            &lqg.kalman_gain,
            &lqg_ref.kalman_gain,
            &format!("{}: Kf", bp.name),
        );

        let curve = stability_curve(&bp.plant, &lqg.controller, h, 7).unwrap();
        let curve_ref = reference::stability_curve(&bp.plant, &lqg_ref.controller, h, 7).unwrap();
        assert_curve_bits_eq(&curve, &curve_ref, bp.name);
    }
}

#[test]
fn exact_scalar_kernels_bit_identical_to_reference() {
    let pool = plants::benchmark_pool().unwrap();
    let bp = pool.iter().find(|p| p.name == "dc_servo").unwrap();
    let h = mid_period(bp.period_range);
    let lqg = design_lqg(&bp.plant, &bp.weights, h, 0.0).unwrap();
    let dm = delay_margin(&bp.plant, &lqg.controller, h).unwrap();
    let dm_ref = reference::delay_margin(&bp.plant, &lqg.controller, h).unwrap();
    assert_eq!(dm.to_bits(), dm_ref.to_bits(), "delay margin");
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
                    assert_curve_bits_eq(curve, curve1, &format!("{} h={h}", bp.name));
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
