//! Property tests of the baseline lifecycle and the event machine.
//!
//! Three invariants from DESIGN.md §14:
//!
//! 1. **Building silence** — while the baseline is building, no
//!    request may emit an event.
//! 2. **Multiset purity** — the locked baseline is a pure function of
//!    the multiset of building-phase samples: any arrival order locks
//!    bit-identical statistics.
//! 3. **Cooldown spacing** — two fired events of the same class are
//!    always more than `cooldown` requests apart, and with constant
//!    pressure the firing cadence is exactly
//!    `max(persistence, cooldown + 1)`.

use csa_core::ControlTask;
use csa_experiments::PeriodModel;
use csa_monitor::{MonitorConfig, MonitorEngine, Payload, Request, Response, Verdict};
use proptest::prelude::*;

fn generated(id: u64, seed: u64, index: usize) -> Request {
    Request {
        id,
        payload: Payload::Generated {
            profile: PeriodModel::MarginTight,
            seed,
            n: 4,
            index,
        },
    }
}

fn drive(engine: &mut MonitorEngine, stream: impl IntoIterator<Item = Request>) -> Vec<Response> {
    let mut responses = Vec::new();
    for request in stream {
        responses.extend(engine.submit(request));
    }
    responses
}

/// Deterministic Fisher-Yates driven by a SplitMix64 stream.
fn permute<T>(items: &mut [T], mut seed: u64) {
    let mut next = move || {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        items.swap(i, (next() % (i as u64 + 1)) as usize);
    }
}

/// A feasible two-task set; `b0` tunes task 0's stability bound so the
/// minimum slack can be degraded without losing schedulability.
fn inline_pair(b0: f64) -> Vec<ControlTask> {
    vec![
        ControlTask::from_parts(0, 500, 1_000, 10_000, 1.2, b0).expect("valid task"),
        ControlTask::from_parts(1, 800, 2_000, 20_000, 1.5, 9e-6).expect("valid task"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Invariant 1: a building baseline emits nothing, whatever the
    /// stream.
    #[test]
    fn no_events_while_building(
        seed in 0u64..500,
        count in 1usize..40,
    ) {
        let mut engine = MonitorEngine::new(MonitorConfig {
            min_samples: u64::MAX, // never locks
            ..MonitorConfig::default()
        });
        let stream = (0..count).map(|k| generated(k as u64 + 1, seed, k));
        let responses = drive(&mut engine, stream);
        prop_assert_eq!(responses.len(), count);
        for response in &responses {
            prop_assert_eq!(response.lifecycle, csa_monitor::Lifecycle::Building);
            prop_assert!(response.events.is_empty());
        }
        prop_assert_eq!(engine.events_emitted(), 0);
    }

    /// Invariant 2: shuffling the arrival order of the same request
    /// multiset locks a bit-identical baseline.
    #[test]
    fn locked_baseline_is_arrival_order_invariant(
        seed in 0u64..500,
        count in 4usize..32,
        shuffle_seed in 0u64..u64::MAX,
    ) {
        // Probe pass: how many nominal samples does this stream carry?
        let mut probe = MonitorEngine::new(MonitorConfig {
            min_samples: u64::MAX,
            ..MonitorConfig::default()
        });
        let base: Vec<Request> = (0..count).map(|k| generated(k as u64 + 1, seed, k)).collect();
        drive(&mut probe, base.clone());
        let nominal = probe.baseline().samples();
        // Assume-style rejection: a stream with no nominal sample
        // cannot lock (the shim counts this as a filtered attempt).
        if nominal == 0 {
            continue;
        }

        // Lock exactly at the last nominal sample, in any order.
        let config = MonitorConfig {
            min_samples: nominal,
            ..MonitorConfig::default()
        };
        let mut in_order = MonitorEngine::new(config.clone());
        drive(&mut in_order, base.clone());

        let mut shuffled = base;
        permute(&mut shuffled, shuffle_seed);
        // Re-key ids by arrival position, so the shuffled stream is
        // still numbered in the order it arrives.
        for (pos, request) in shuffled.iter_mut().enumerate() {
            request.id = pos as u64 + 1;
        }
        let mut out_of_order = MonitorEngine::new(config);
        drive(&mut out_of_order, shuffled);

        prop_assert_eq!(in_order.lifecycle(), csa_monitor::Lifecycle::Locked);
        prop_assert_eq!(out_of_order.lifecycle(), csa_monitor::Lifecycle::Locked);
        prop_assert_eq!(in_order.baseline(), out_of_order.baseline());
    }

    /// Invariant 3: same-class events are more than `cooldown` apart;
    /// under constant trigger pressure the cadence is exactly
    /// `max(persistence, cooldown + 1)`.
    #[test]
    fn cooldown_spaces_repeated_events(
        cooldown in 0u64..12,
        persistence in 1u64..4,
        bad_count in 10usize..40,
    ) {
        let build_count = 6u64;
        let mut engine = MonitorEngine::new(MonitorConfig {
            min_samples: build_count,
            persistence,
            cooldown,
            ..MonitorConfig::default()
        });

        // Identical nominal sets: mean is their shared slack, std = 0,
        // so any lower-slack set z-triggers deterministically.
        let nominal = inline_pair(4e-6); // min slack 5e-7
        let degraded = inline_pair(1.3e-6); // min slack 2e-7, still feasible
        let mut id = 0u64;
        let mut responses = Vec::new();
        for _ in 0..build_count {
            id += 1;
            responses.extend(engine.submit(Request {
                id,
                payload: Payload::Inline { tasks: nominal.clone() },
            }));
        }
        prop_assert_eq!(engine.lifecycle(), csa_monitor::Lifecycle::Locked);
        let nominal_slack = responses.last().and_then(|r| r.slack);
        for _ in 0..bad_count {
            id += 1;
            responses.extend(engine.submit(Request {
                id,
                payload: Payload::Inline { tasks: degraded.clone() },
            }));
        }

        // Sanity of the fixture: both sets admit, the degraded one with
        // strictly less slack.
        prop_assert!(responses.iter().all(|r| r.verdict == Verdict::Admit));
        let degraded_slack = responses.last().and_then(|r| r.slack);
        prop_assert!(degraded_slack < nominal_slack);

        // Collect per-class firing sequences.
        let mut by_class: std::collections::BTreeMap<String, Vec<u64>> =
            std::collections::BTreeMap::new();
        for response in &responses {
            for event in &response.events {
                by_class.entry(event.class.name()).or_default().push(event.seq);
            }
        }
        let cadence = persistence.max(cooldown + 1);
        let expected_fires = if bad_count as u64 >= persistence {
            1 + (bad_count as u64 - persistence) / cadence
        } else {
            0
        };
        prop_assert!(by_class.contains_key("margin-z-slack"), "no margin event fired");
        for (class, seqs) in &by_class {
            for pair in seqs.windows(2) {
                prop_assert!(
                    pair[1] - pair[0] > cooldown,
                    "class {class} fired {} then {} with cooldown {cooldown}",
                    pair[0],
                    pair[1]
                );
                prop_assert_eq!(pair[1] - pair[0], cadence);
            }
            prop_assert_eq!(seqs.len() as u64, expected_fires, "class {}", class);
        }
    }
}
