//! Output digests and the expected values recorded for them.

/// FNV-1a 64 over `lines`, each followed by a newline.
pub fn of_lines<S: AsRef<str>>(lines: impl IntoIterator<Item = S>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for l in lines {
        for &b in l.as_ref().as_bytes().iter().chain(b"\n") {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// `key hex` lines produced by `--record` on the code the benchmark was
/// defined on.
const EXPECTED: &str = include_str!("../expected.txt");

/// The recorded digest for `key`, if any.
pub fn expected(key: &str) -> Option<u64> {
    EXPECTED
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let (k, v) = l.split_once(' ')?;
            (k == key).then(|| u64::from_str_radix(v.trim(), 16).ok())?
        })
}

/// `true` when `digest` equals the recorded value for `key`; a missing
/// record counts as a mismatch.
pub fn matches(key: &str, digest: u64) -> bool {
    let ok = expected(key) == Some(digest);
    if !ok {
        eprintln!(
            "digest {key}: got {digest:016x}, recorded {}",
            expected(key).map_or("nothing".to_string(), |d| format!("{d:016x}"))
        );
    }
    ok
}
