//! Shape assertions for every table and figure of the paper, at reduced
//! scale (the full scale runs live in `csa-experiments` binaries and the
//! Criterion benches).

use csa_experiments::{
    run_census, run_fig2, run_fig4, run_fig5, run_table1, CensusConfig, Fig2Config, Fig4Config,
    Fig5Config, PeriodModel, SearchConfig, Table1Config,
};

#[test]
fn table1_invalid_solutions_are_rare() {
    let rows = run_table1(&Table1Config {
        task_counts: vec![4, 8],
        benchmarks: 400,
        seed: 2017,
        profile: PeriodModel::GridSnapped,
        search: SearchConfig::default(),
    });
    for r in &rows {
        // The paper's headline: anomalies are extremely rare, so the
        // unsafe algorithm's invalid rate is a fraction of a percent
        // (<= 0.38% in the paper). With 400 samples we assert < 2%.
        assert!(
            r.invalid_pct() < 2.0,
            "n = {}: invalid rate {}%",
            r.n,
            r.invalid_pct()
        );
        // Most benchmarks are solvable at all.
        assert!(r.solved * 10 >= r.benchmarks * 5);
    }
}

#[test]
fn fig2_shows_trend_nonmonotonicity_and_spikes() {
    let curves = run_fig2(&Fig2Config::quick());
    let osc = curves
        .iter()
        .find(|c| c.plant == "lightly_damped_oscillator")
        .expect("oscillator curve present");
    assert!(osc.has_increasing_trend(), "missing increasing trend");
    assert!(osc.non_monotone_points() > 0, "missing non-monotonicity");
    assert!(osc.dynamic_range() > 1e2, "missing pathological spikes");
}

#[test]
fn fig4_curves_and_fits_have_paper_shape() {
    let curves = run_fig4(&Fig4Config::quick()).expect("fig4 runs");
    for c in &curves {
        let pts = c.curve.points();
        // Decreasing overall, ending near zero at the delay margin.
        assert!(pts[0].jitter_margin > 0.0);
        assert!(pts.last().unwrap().jitter_margin <= 0.35 * pts[0].jitter_margin);
        // Eq. 5 constraints and lower-bound property.
        assert!(c.fit.a >= 1.0);
        assert!(c.fit.b > 0.0);
        for p in pts {
            assert!(c.fit.max_jitter(p.latency) <= p.jitter_margin + 1e-12);
        }
    }
}

#[test]
fn fig5_runtimes_grow_polynomially_and_stay_close() {
    let pts = run_fig5(&Fig5Config {
        task_counts: vec![4, 8, 12, 16],
        benchmarks: 60,
        seed: 5,
        profile: PeriodModel::GridSnapped,
        search: SearchConfig::default(),
    });
    // Check-count growth is far from exponential.
    for p in &pts {
        let n = p.n as f64;
        assert!(p.search_checks <= 25.0 * n * n);
        assert!(p.unsafe_quadratic_checks <= 2.0 * n + 1.0);
    }
    // The two algorithms remain within two orders of magnitude of each
    // other (the paper's figure shows them close).
    for p in &pts {
        let ratio = p.search_secs / p.unsafe_quadratic_secs.max(1e-12);
        assert!(ratio < 100.0, "n = {}: ratio {ratio}", p.n);
    }
}

#[test]
fn census_confirms_rarity_and_decreasing_anomaly_trend() {
    let rows = run_census(&CensusConfig {
        task_counts: vec![4, 8],
        benchmarks: 400,
        seed: 77,
        profile: PeriodModel::GridSnapped,
        search: SearchConfig::default(),
    });
    for r in &rows {
        // Anomaly rates are tiny fractions of solvable benchmarks.
        assert!(r.interference_anomalies * 20 <= r.solvable.max(20));
        assert!(r.certificate_lies * 20 <= r.benchmarks);
        // OPA incompleteness and unsafe invalidity are rarer still.
        assert!(r.opa_incomplete * 50 <= r.solvable.max(50));
        assert!(r.unsafe_invalid * 50 <= r.benchmarks);
    }
}
