//! Random utilizations for the paper's experiments (§V).
//!
//! The paper draws benchmark sets with the UUniFast algorithm (Bini &
//! Buttazzo 2005): `n` task utilizations that sum to a target `U`, sampled
//! uniformly from the simplex. Periods and best/worst execution-time
//! ratios are drawn by the benchmark generator of `csa-experiments`.

use rand::Rng;

/// Generates `n` utilizations summing to `u_total` with the UUniFast
/// algorithm (uniform over the simplex).
///
/// # Panics
///
/// Panics if `n == 0` or `u_total <= 0`.
///
/// # Examples
///
/// ```
/// use csa_rta::uunifast;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let u = uunifast(5, 0.8, &mut rng);
/// assert_eq!(u.len(), 5);
/// let sum: f64 = u.iter().sum();
/// assert!((sum - 0.8).abs() < 1e-12);
/// assert!(u.iter().all(|&x| x > 0.0));
/// ```
pub fn uunifast<R: Rng + ?Sized>(n: usize, u_total: f64, rng: &mut R) -> Vec<f64> {
    assert!(n > 0, "need at least one task");
    assert!(u_total > 0.0, "total utilization must be positive");
    let mut utils = Vec::with_capacity(n);
    let mut sum_u = u_total;
    for i in 1..n {
        let exponent = 1.0 / (n - i) as f64;
        let next: f64 = sum_u * rng.gen::<f64>().powf(exponent);
        utils.push(sum_u - next);
        sum_u = next;
    }
    utils.push(sum_u);
    utils
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uunifast_sums_to_target() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in [1usize, 2, 5, 20] {
            for u in [0.1, 0.5, 0.95] {
                let v = uunifast(n, u, &mut rng);
                assert_eq!(v.len(), n);
                assert!((v.iter().sum::<f64>() - u).abs() < 1e-12);
                assert!(v.iter().all(|&x| x >= 0.0));
            }
        }
    }

    #[test]
    fn uunifast_single_task_gets_everything() {
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(uunifast(1, 0.6, &mut rng), vec![0.6]);
    }
}
