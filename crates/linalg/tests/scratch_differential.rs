//! Differential pinning of the PR 6 scratch-space kernels against the
//! retained one-shot reference implementations.
//!
//! Contract (DESIGN.md §10): `LuScratch`, `EigScratch`, and
//! `DareScratch::solve` are *bit-identical* to `Lu`, `eigenvalues`, and
//! `solve_dare` — they perform the same floating-point operation sequence
//! and merely reuse buffers.

use csa_linalg::{eigenvalues, solve_dare, DareScratch, EigScratch, LuScratch, Mat, StageCost};

/// Deterministic pseudo-random matrix generator (splitmix-style LCG).
struct Rng(u64);

impl Rng {
    fn next_f64(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    }

    fn mat(&mut self, rows: usize, cols: usize) -> Mat {
        Mat::from_fn(rows, cols, |_, _| self.next_f64())
    }

    /// A symmetric PSD matrix `M M^T + eps I`.
    fn psd(&mut self, n: usize, eps: f64) -> Mat {
        let m = self.mat(n, n);
        let mut p = &m * &m.transpose();
        for i in 0..n {
            p[(i, i)] += eps;
        }
        p
    }
}

fn assert_bits_eq(a: &Mat, b: &Mat, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            assert_eq!(
                a[(i, j)].to_bits(),
                b[(i, j)].to_bits(),
                "{what}: bit mismatch at ({i},{j}): {} vs {}",
                a[(i, j)],
                b[(i, j)]
            );
        }
    }
}

#[test]
fn lu_scratch_solve_bit_identical() {
    let mut rng = Rng(0xA11CE);
    let mut scratch = LuScratch::new();
    let mut x = Mat::zeros(1, 1);
    for n in [1usize, 2, 3, 5, 8] {
        let a = rng.mat(n, n);
        let b = rng.mat(n, 2);
        let x_ref = a.solve(&b).unwrap();
        scratch.factor(&a).unwrap();
        assert!(!scratch.is_singular());
        scratch.solve_into(&b, &mut x).unwrap();
        assert_bits_eq(&x, &x_ref, "LuScratch vs Mat::solve");
    }
}

#[test]
fn lu_scratch_reports_singularity_like_lu() {
    let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
    let mut scratch = LuScratch::new();
    scratch.factor(&a).unwrap();
    assert!(scratch.is_singular());
    let mut x = Mat::zeros(1, 1);
    assert!(scratch
        .solve_into(&Mat::col_vec(&[1.0, 1.0]), &mut x)
        .is_err());
}

#[test]
fn eig_scratch_bit_identical_across_sizes() {
    let mut rng = Rng(0xBEEF);
    let mut scratch = EigScratch::new();
    for n in [1usize, 2, 3, 4, 6, 9] {
        let a = rng.mat(n, n);
        let reference = eigenvalues(&a).unwrap();
        let got = scratch.eigenvalues_in(&a).unwrap();
        assert_eq!(got.len(), reference.len());
        for (g, r) in got.iter().zip(&reference) {
            assert_eq!(g.re.to_bits(), r.re.to_bits(), "re mismatch (n={n})");
            assert_eq!(g.im.to_bits(), r.im.to_bits(), "im mismatch (n={n})");
        }
        let rho_ref = csa_linalg::spectral_radius(&a).unwrap();
        let rho = scratch.spectral_radius_in(&a).unwrap();
        assert_eq!(rho.to_bits(), rho_ref.to_bits(), "spectral radius (n={n})");
    }
}

#[test]
fn dare_scratch_cold_bit_identical() {
    let mut rng = Rng(0x5EED);
    let mut scratch = DareScratch::new();
    for n in [1usize, 2, 3, 5] {
        let a = rng.mat(n, n);
        let b = rng.mat(n, 1);
        let cost = StageCost::with_cross(
            rng.psd(n, 0.5),
            rng.mat(n, 1).scale(0.01),
            Mat::scalar(1.0 + rng.next_f64().abs()),
        );
        let reference = solve_dare(&a, &b, &cost);
        let got = scratch.solve(&a, &b, &cost);
        match (got, reference) {
            (Ok(g), Ok(r)) => {
                assert_bits_eq(&g.s, &r.s, "DareScratch S");
                assert_bits_eq(&g.k, &r.k, "DareScratch K");
            }
            (Err(_), Err(_)) => {}
            (g, r) => panic!("cold scratch/reference disagree on success: {g:?} vs {r:?}"),
        }
    }
}

#[test]
fn mat_inplace_helpers_bit_identical() {
    let mut rng = Rng(0x1234);
    let a = rng.mat(4, 3);
    let b = rng.mat(3, 5);
    let c = rng.mat(4, 3);
    let mut out = Mat::zeros(1, 1);
    out.mul_into(&a, &b);
    assert_bits_eq(&out, &(&a * &b), "mul_into");
    out.add_into(&a, &c);
    assert_bits_eq(&out, &(&a + &c), "add_into");
    out.sub_into(&a, &c);
    assert_bits_eq(&out, &(&a - &c), "sub_into");
    out.transpose_into(&a);
    assert_bits_eq(&out, &a.transpose(), "transpose_into");
    out.set_identity(4);
    assert_bits_eq(&out, &Mat::identity(4), "set_identity");
}
