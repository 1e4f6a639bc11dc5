//! Witness-corpus replay: the committed anomalous instances must (1)
//! regenerate bit-for-bit from their generator coordinates and (2) still
//! exhibit their recorded pathology under the exact analyses.
//!
//! The corpus (`tests/data/witness_corpus.txt`) holds the witnesses of
//! paper-scale `census --n 4` sweeps (20 000 benchmarks at n = 4, seed
//! 77) under the harmonic-stress, continuous and margin-tight profiles,
//! in that order; see EXPERIMENTS.md for the measured rates. A rate
//! alone is a weak regression surface — a change that silently stops
//! *finding* the anomalies still prints a plausible percentage — so
//! these tests pin the concrete instances.
//!
//! Note on kinds: the corpus carries the §IV anomaly events this
//! reproduction actually exhibits (certificate lies, interference-removal
//! and priority-raise anomalies). `unsafe-invalid` conversions are
//! structurally absent under this margin pool — the criticality ordering
//! accidentally shields the certificates (EXPERIMENTS.md, Table I
//! section) — and their detector is pinned by constructed cases in
//! `csa-core` instead.

use csa_core::{
    audsley_opa, backtracking, find_interference_removal_anomaly, find_priority_raise_anomaly,
    is_valid_assignment, unsafe_quadratic, verify_witness,
};
use csa_experiments::{
    generate_benchmark, has_certificate_lie, instance_seed, parse_witness_corpus, BenchmarkConfig,
    Witness, WitnessKind,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const CORPUS: &str = include_str!("data/witness_corpus.txt");

fn corpus() -> Vec<Witness> {
    let witnesses = parse_witness_corpus(CORPUS).expect("committed corpus must parse");
    assert!(
        !witnesses.is_empty(),
        "committed corpus must contain at least one witness"
    );
    witnesses
}

#[test]
fn corpus_lines_reserialize_byte_identically() {
    // Round-trip equality alone cannot catch a self-consistent change of
    // the `csaw1` format; re-serializing every committed line can.
    let lines: Vec<&str> = CORPUS
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    assert_eq!(lines.len(), 80, "committed corpus size");
    for line in lines {
        let w = Witness::parse(line).expect("committed corpus must parse");
        assert_eq!(w.to_line(), line);
    }
}

#[test]
fn corpus_has_certificate_lies() {
    // The headline reproduced event: the raw Table I mechanism.
    let lies = corpus()
        .iter()
        .filter(|w| w.kind == WitnessKind::CertificateLie)
        .count();
    assert!(lies >= 3, "only {lies} certificate-lie witnesses committed");
}

#[test]
fn witnesses_regenerate_bit_identically() {
    // Replayability: the (profile, seed, n, index) coordinates fully
    // determine the instance. Any diff means the generator changed —
    // regenerate the corpus deliberately, never let it drift silently.
    for w in corpus() {
        let cfg = BenchmarkConfig::with_model(w.n, w.profile);
        let mut rng = StdRng::seed_from_u64(instance_seed(w.seed, w.n, w.index));
        let regenerated = generate_benchmark(&cfg, &mut rng);
        assert_eq!(
            regenerated, w.tasks,
            "witness ({}, seed {}, n {}, index {}) no longer regenerates",
            w.profile, w.seed, w.n, w.index
        );
    }
}

#[test]
fn witnesses_still_exhibit_their_pathology() {
    for w in corpus() {
        match w.kind {
            WitnessKind::CertificateLie => {
                assert!(
                    has_certificate_lie(&w.tasks),
                    "witness {} index {}: certificate lie vanished",
                    w.profile,
                    w.index
                );
            }
            WitnessKind::UnsafeInvalid => {
                let pa = unsafe_quadratic(&w.tasks)
                    .assignment
                    .expect("unsafe-invalid witness must produce an assignment");
                assert!(
                    !is_valid_assignment(&w.tasks, &pa),
                    "witness {} index {}: unsafe assignment became valid",
                    w.profile,
                    w.index
                );
            }
            WitnessKind::InterferenceAnomaly => {
                let pa = backtracking(&w.tasks)
                    .assignment
                    .expect("anomaly witness sets are solvable");
                let aw = find_interference_removal_anomaly(&w.tasks, &pa)
                    .expect("interference anomaly vanished");
                assert!(verify_witness(&w.tasks, &pa, &aw));
            }
            WitnessKind::PriorityRaiseAnomaly => {
                let pa = backtracking(&w.tasks)
                    .assignment
                    .expect("anomaly witness sets are solvable");
                assert!(find_priority_raise_anomaly(&w.tasks, &pa).is_some());
            }
            WitnessKind::OpaIncomplete => {
                assert!(audsley_opa(&w.tasks).assignment.is_none());
                assert!(backtracking(&w.tasks).assignment.is_some());
            }
        }
    }
}

#[test]
fn solvable_witnesses_get_valid_backtracking_assignments() {
    // On every witness instance backtracking either proves the set
    // infeasible or returns an assignment that passes exact
    // verification — the safe algorithm stays safe on the anomalous
    // corpus.
    for w in corpus() {
        if let Some(pa) = backtracking(&w.tasks).assignment {
            assert!(
                is_valid_assignment(&w.tasks, &pa),
                "witness {} index {}: backtracking produced an invalid assignment",
                w.profile,
                w.index
            );
        }
    }
}
