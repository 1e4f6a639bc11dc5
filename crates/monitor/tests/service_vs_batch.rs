//! Differential pinning: the streaming service must produce exactly
//! the batch analysis's verdicts.
//!
//! The committed witness corpus (every pathological instance the
//! regression sweeps ever found) is replayed through the service as
//! inline requests, and each response is compared field-by-field
//! against an independent `classify_instance` run on the same task
//! set — then the whole response stream is checked bit-identical with
//! a one-entry assessment bank and the default one, both as typed
//! values and as serialized JSONL.

use csa_core::analyze;
use csa_experiments::{parse_witness_corpus, SearchConfig, Witness};
use csa_monitor::jsonl::response_line;
use csa_monitor::{MonitorConfig, MonitorEngine, Payload, Request, Response, Verdict};

const CORPUS: &str = include_str!("../../experiments/tests/data/witness_corpus.txt");

fn corpus() -> Vec<Witness> {
    let witnesses = parse_witness_corpus(CORPUS).expect("corpus parses");
    assert!(witnesses.len() >= 40, "corpus unexpectedly small");
    witnesses
}

/// Runs the whole corpus through a fresh service with a bank of
/// `memo_tables` assessments.
fn run_service(witnesses: &[Witness], memo_tables: usize) -> Vec<Response> {
    let mut engine = MonitorEngine::new(MonitorConfig {
        memo_tables,
        // Keep the baseline building for the whole replay so the
        // response stream carries no run-length-dependent events.
        min_samples: u64::MAX,
        ..MonitorConfig::default()
    });
    let mut responses = Vec::new();
    for (i, witness) in witnesses.iter().enumerate() {
        responses.extend(engine.submit(Request {
            id: i as u64 + 1,
            payload: Payload::Inline {
                tasks: witness.tasks.clone(),
            },
        }));
    }
    responses
}

/// Bits of the minimum of `values` (`None` when empty).
fn min_bits(values: impl Iterator<Item = f64>) -> Option<u64> {
    values.reduce(f64::min).map(f64::to_bits)
}

#[test]
fn service_verdicts_equal_batch_classification() {
    let witnesses = corpus();
    let search = SearchConfig::default();
    // The default bank answers every repeated corpus set as a hit.
    let responses = run_service(&witnesses, MonitorConfig::default().memo_tables);
    assert_eq!(responses.len(), witnesses.len());
    for (witness, response) in witnesses.iter().zip(&responses) {
        let reference = csa_experiments::classify_instance(&witness.tasks, &search);
        let expected = if reference.solvable() {
            Verdict::Admit
        } else if reference.truncated() {
            Verdict::Unknown
        } else {
            Verdict::Reject
        };
        assert_eq!(response.verdict, expected, "witness {witness:?}");
        assert_eq!(response.checks, reference.outcome.stats.checks);
        assert_eq!(response.truncated, reference.outcome.stats.truncated);
        assert_eq!(response.anomalies, reference.kinds(), "witness {witness:?}");
        assert_eq!(response.n, witness.tasks.len());
        assert_eq!(response.profile, csa_monitor::INLINE_PROFILE);
        assert!(response.quarantine.is_none());
        // Slacks, recomputed cold under the reference's assignment.
        let verdicts = match &reference.outcome.assignment {
            Some(pa) => analyze(&witness.tasks, pa),
            None => Vec::new(),
        };
        let bounds = witness.tasks.iter().map(|t| t.bound().b());
        assert_eq!(
            response.slack.map(f64::to_bits),
            min_bits(verdicts.iter().map(|v| v.slack)),
            "slack of witness {witness:?}"
        );
        assert_eq!(
            response.norm_slack.map(f64::to_bits),
            min_bits(verdicts.iter().zip(bounds).map(|(v, b)| v.slack / b)),
            "norm_slack of witness {witness:?}"
        );
        // The corpus records pathologies: the recorded class must
        // resurface in the service's census classification whenever
        // the instance admits (anomaly classes are defined relative to
        // a found assignment; unsolvable instances legitimately report
        // none).
        if response.verdict == Verdict::Admit {
            assert!(
                !response.anomalies.is_empty(),
                "admitted corpus witness lost its anomaly: {witness:?}"
            );
        }
    }
}

#[test]
fn responses_are_bit_identical_at_any_bank_size() {
    // With a one-entry bank every repeated corpus set is classified
    // afresh; with the default one it is a hit.
    let witnesses = corpus();
    let cold = run_service(&witnesses, 1);
    let warm = run_service(&witnesses, MonitorConfig::default().memo_tables);
    assert_eq!(warm, cold, "typed divergence");
    let jsonl = |run: &[Response]| run.iter().map(response_line).collect::<Vec<_>>();
    assert_eq!(jsonl(&warm), jsonl(&cold), "serialized divergence");
}

#[test]
fn replaying_generated_coordinates_matches_inline_replay() {
    // Witness lines carry both the generator coordinates and the
    // materialized task set; the service must treat them identically
    // (same assessment, same checks) whichever form arrives.
    let witnesses = corpus();
    let inline = run_service(&witnesses, MonitorConfig::default().memo_tables);
    let mut engine = MonitorEngine::new(MonitorConfig {
        min_samples: u64::MAX,
        ..MonitorConfig::default()
    });
    let mut generated = Vec::new();
    for (i, w) in witnesses.iter().enumerate() {
        generated.extend(engine.submit(Request {
            id: i as u64 + 1,
            payload: Payload::Generated {
                profile: w.profile,
                seed: w.seed,
                n: w.n,
                index: w.index,
            },
        }));
    }
    assert_eq!(generated.len(), inline.len());
    for (g, i) in generated.iter().zip(&inline) {
        assert_eq!(g.verdict, i.verdict);
        assert_eq!(g.checks, i.checks);
        assert_eq!(g.truncated, i.truncated);
        assert_eq!(g.slack, i.slack);
        assert_eq!(g.norm_slack, i.norm_slack);
        assert_eq!(g.anomalies, i.anomalies);
    }
}
