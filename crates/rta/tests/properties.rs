//! Property-based tests for the response-time analysis.
//!
//! The crucial properties mirror the paper's discussion: the response
//! times themselves *are* monotone in the interference set (adding a
//! higher-priority task can only increase `R_w` and `R_b`), while the
//! derived jitter `J = R_w - R_b` is *not* — that non-monotonicity is
//! exactly the anomaly the paper studies, so we must not accidentally
//! "fix" it here.

use csa_rta::{bcrt_from, response_bounds, uunifast, wcrt, wcrt_with_limit, Task, TaskId, Ticks};
use proptest::prelude::*;

/// Strategy: a single valid task with bounded parameters.
fn task_strategy(id: u32) -> impl Strategy<Value = Task> {
    (1u64..50, 1u64..200).prop_flat_map(move |(c_worst, slack)| {
        let period = c_worst + slack;
        (1u64..=c_worst).prop_map(move |c_best| {
            Task::new(
                TaskId::new(id),
                Ticks::new(c_best),
                Ticks::new(c_worst),
                Ticks::new(period),
            )
            .expect("strategy yields valid tasks")
        })
    })
}

/// Strategy: a vector of up to `n` valid tasks.
fn task_vec_strategy(n: usize) -> impl Strategy<Value = Vec<Task>> {
    proptest::collection::vec((1u64..30, 1u64..150, 0u64..30), 0..n).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (c_worst, slack, best_cut))| {
                let c_best = c_worst.saturating_sub(best_cut).max(1);
                Task::new(
                    TaskId::new(i as u32),
                    Ticks::new(c_best),
                    Ticks::new(c_worst),
                    Ticks::new(c_worst + slack),
                )
                .expect("valid")
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn wcrt_at_least_own_demand(task in task_strategy(100), hp in task_vec_strategy(4)) {
        if let Some(r) = wcrt(&task, &hp) {
            prop_assert!(r >= task.c_worst());
            prop_assert!(r <= task.period());
        }
    }

    #[test]
    fn bounds_are_ordered(task in task_strategy(100), hp in task_vec_strategy(4)) {
        if let Some(rb) = response_bounds(&task, &hp) {
            prop_assert!(rb.bcrt <= rb.wcrt);
            prop_assert!(rb.bcrt >= task.c_best());
            prop_assert!(rb.latency() + rb.jitter() == rb.wcrt);
        }
    }

    #[test]
    fn wcrt_monotone_in_interference(task in task_strategy(100), hp in task_vec_strategy(4), extra in task_strategy(99)) {
        // Adding one more interferer never decreases the WCRT fixed point.
        let limit = Ticks::new(1_000_000);
        let base = wcrt_with_limit(&task, &hp, limit);
        let mut hp2 = hp.clone();
        hp2.push(extra);
        let more = wcrt_with_limit(&task, &hp2, limit);
        match (base, more) {
            (Some(a), Some(b)) => prop_assert!(b >= a, "WCRT decreased when adding interference"),
            (None, Some(_)) => prop_assert!(false, "adding interference cannot make WCRT converge"),
            _ => {}
        }
    }

    #[test]
    fn bcrt_monotone_in_interference(task in task_strategy(100), hp in task_vec_strategy(4), extra in task_strategy(99)) {
        // From the same start, BCRT is monotone in the hp set too.
        let start = Ticks::new(10_000);
        let a = bcrt_from(&task, &hp, start);
        let mut hp2 = hp.clone();
        hp2.push(extra);
        let b = bcrt_from(&task, &hp2, start);
        prop_assert!(b >= a, "BCRT decreased when adding interference");
    }

    #[test]
    fn wcrt_is_true_fixed_point(task in task_strategy(100), hp in task_vec_strategy(4)) {
        if let Some(r) = wcrt(&task, &hp) {
            let recomputed = task.c_worst()
                + hp.iter()
                    .map(|j| j.c_worst() * r.div_ceil(j.period()))
                    .sum::<Ticks>();
            prop_assert_eq!(recomputed, r);
        }
    }

    #[test]
    fn bcrt_is_true_fixed_point(task in task_strategy(100), hp in task_vec_strategy(4)) {
        if let Some(rb) = response_bounds(&task, &hp) {
            let r = rb.bcrt;
            let recomputed = task.c_best()
                + hp.iter()
                    .map(|j| j.c_best() * r.div_ceil(j.period()).saturating_sub(1))
                    .sum::<Ticks>();
            prop_assert_eq!(recomputed.max(task.c_best()), r);
        }
    }

    #[test]
    fn uunifast_properties(n in 1usize..25, u in 0.05f64..0.99, seed in any::<u64>()) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let v = uunifast(n, u, &mut rng);
        prop_assert_eq!(v.len(), n);
        prop_assert!((v.iter().sum::<f64>() - u).abs() < 1e-10);
        prop_assert!(v.iter().all(|&x| (0.0..=u + 1e-12).contains(&x)));
    }
}
