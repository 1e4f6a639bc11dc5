//! Value pins and workspace reuse for the dense kernels.
//!
//! Each kernel has one implementation (DESIGN.md §10): `Lu`, `EigScratch`
//! and `DareScratch` are the kernels, and `Mat::solve`, `eigenvalues`,
//! `spectral_radius` and `solve_dare` run them on a fresh workspace. So
//! these tests do not compare a function with a copy of itself. They pin
//! the kernels' outputs by value, as FNV-1a digests of the result bits
//! written out below (the way `margin_artifact.rs` pins the margin
//! artifact), and check that a workspace already used at other sizes
//! returns the bits of a fresh one.

use csa_linalg::{
    eigenvalues, solve_dare, spectral_radius, Cplx, DareScratch, EigScratch, Error, Lu, Mat,
    StageCost,
};

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

    /// A DARE instance of order `n` with `m` inputs and a cross weight.
    fn dare(&mut self, n: usize, m: usize) -> (Mat, Mat, StageCost) {
        let a = self.mat(n, n);
        let b = self.mat(n, m);
        let q = self.psd(n, 0.5);
        let cross = self.mat(n, m).scale(0.01);
        let r = &self.psd(m, 1.0) + &Mat::identity(m);
        (a, b, StageCost::with_cross(q, cross, r))
    }
}

/// A matrix as words: its shape, then its entries' bits.
fn words(m: &Mat) -> Vec<u64> {
    let shape = [m.rows() as u64, m.cols() as u64];
    shape
        .into_iter()
        .chain(m.as_slice().iter().map(|v| v.to_bits()))
        .collect()
}

fn cplx_words(zs: &[Cplx]) -> Vec<u64> {
    zs.iter()
        .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
        .collect()
}

/// FNV-1a over the words' little-endian bytes, as 16 hex digits.
fn fnv1a(words: &[u64]) -> String {
    let h = words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
    format!("{h:016x}")
}

/// 180 seeded results: 36 per kernel, at orders 1 to 9 four times over
/// (the DARE capped at order 6, with one or two inputs). The digests were
/// recorded on the separate one-shot kernels the workspaces replaced, so
/// they hold the bits those kernels produced.
#[test]
fn kernel_outputs_pinned_by_value() {
    let [mut solve, mut det, mut eig, mut rho, mut dare] = [(); 5].map(|_| Vec::new());
    let [mut lu_rng, mut det_rng, mut eig_rng, mut dare_rng] =
        [0xA11CE, 0xDE7, 0xBEEF, 0x5EED].map(Rng);
    for (k, n) in (1..=9).cycle().take(36).enumerate() {
        let a = lu_rng.mat(n, n);
        solve.extend(words(&a.solve(&lu_rng.mat(n, 2)).unwrap()));
        det.push(Lu::new(&det_rng.mat(n, n)).unwrap().det().to_bits());
        eig.extend(cplx_words(&eigenvalues(&eig_rng.mat(n, n)).unwrap()));
        rho.push(spectral_radius(&eig_rng.mat(n, n)).unwrap().to_bits());
        let (a, b, cost) = dare_rng.dare(n.min(6), 1 + k % 2);
        let sol = solve_dare(&a, &b, &cost).unwrap();
        dare.extend(words(&sol.s).into_iter().chain(words(&sol.k)));
    }
    assert_eq!(
        [solve, det, eig, rho, dare].map(|w| fnv1a(&w)),
        [
            "b88edfe412d4b9dd",
            "3144601a37d8a8e6",
            "9bcf35cb333eb8e4",
            "97caae50f883f096",
            "c88d6036cd9adeb3",
        ],
        "digests of Mat::solve, Lu::det, eigenvalues, spectral_radius, solve_dare"
    );
}

#[test]
fn lu_scratch_solve_bit_identical() {
    let mut rng = Rng(0xA11CE);
    let mut lu = Lu::default();
    let mut x = Mat::zeros(1, 1);
    for n in [1usize, 2, 3, 5, 8, 3, 1] {
        let a = rng.mat(n, n);
        let b = rng.mat(n, 2);
        lu.factor(&a).unwrap();
        assert!(!lu.is_singular());
        lu.solve_into(&b, &mut x).unwrap();
        assert_eq!(words(&x), words(&a.solve(&b).unwrap()), "n = {n}");
    }
}

#[test]
fn lu_scratch_reports_singularity_like_lu() {
    let mut lu = Lu::default();
    let mut x = Mat::zeros(1, 1);
    let b = Mat::col_vec(&[1.0, 1.0]);
    // Never factored, then refactored after a regular matrix.
    assert!(lu.is_singular());
    lu.factor(&Rng(7).mat(3, 3)).unwrap();
    let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
    lu.factor(&a).unwrap();
    assert!(lu.is_singular() && Lu::new(&a).unwrap().is_singular());
    assert_eq!(lu.solve_into(&b, &mut x), Err(Error::Singular));
    assert_eq!(a.solve(&b).err(), Some(Error::Singular));
}

#[test]
fn eig_scratch_bit_identical_across_sizes() {
    let mut rng = Rng(0xBEEF);
    let mut scratch = EigScratch::new();
    for n in [1usize, 2, 3, 4, 6, 9, 3, 1, 5] {
        let a = rng.mat(n, n);
        let got = cplx_words(scratch.eigenvalues_in(&a).unwrap());
        assert_eq!(got, cplx_words(&eigenvalues(&a).unwrap()), "n = {n}");
        let rho = scratch.spectral_radius_in(&a).unwrap().to_bits();
        assert_eq!(rho, spectral_radius(&a).unwrap().to_bits(), "n = {n}");
    }
}

#[test]
fn dare_scratch_cold_bit_identical() {
    let mut rng = Rng(0x5EED);
    let mut scratch = DareScratch::new();
    for (k, n) in [1usize, 2, 3, 5, 2, 4, 1].into_iter().enumerate() {
        let (a, b, cost) = rng.dare(n, 1 + k % 2);
        match (scratch.solve(&a, &b, &cost), solve_dare(&a, &b, &cost)) {
            (Ok(g), Ok(r)) => {
                assert_eq!(words(&g.s), words(&r.s), "S, n = {n}");
                assert_eq!(words(&g.k), words(&r.k), "K, n = {n}");
            }
            (g, r) => assert_eq!(g.err(), r.err(), "n = {n}"),
        }
    }
}
