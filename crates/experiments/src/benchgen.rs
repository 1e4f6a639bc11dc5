//! Benchmark generation reproducing the paper's §V setup.
//!
//! "We generate 10000 benchmarks with a set of 4–20 control applications.
//! The plants are chosen from [4], [14]. We use the UUniFast algorithm to
//! generate a set of random control tasks for a given utilization."
//!
//! Unspecified details (documented in DESIGN.md/EXPERIMENTS.md): total
//! utilization drawn uniformly from a range, best-case execution times a
//! uniform fraction of the worst case, and — crucially — *how task
//! periods are drawn*. The paper does not pin a period distribution, and
//! the anomaly rates the harness measures hinge on it: snapping every
//! period to a handful of round engineering values suppresses the
//! borderline task sets where the §IV jitter non-monotonicity lives,
//! while the continuous-period profiles reproduce it (certificate lies,
//! interference-removal and priority-raise anomalies at paper scale —
//! see EXPERIMENTS.md). The [`PeriodModel`] selected through
//! [`BenchmarkConfig`] makes that choice explicit and comparable
//! (DESIGN.md §3).

use crate::margins::{interpolated_tables, margin_tables, MarginEntry, MarginInterp, PlantMargins};
use csa_core::{check_task, ControlTask, StabilityBound, TaskVerdict};
use csa_rta::{uunifast, Task, TaskId, Ticks};
use rand::Rng;

/// Log-grid points of the victim-period sweep under
/// [`PeriodModel::MarginTight`]: the budget of the adversarial
/// certificate-lie search per drawn benchmark.
const MARGIN_TIGHT_SCAN_POINTS: usize = 48;

/// Total utilization is drawn uniformly from this range.
const UTILIZATION_RANGE: (f64, f64) = (0.5, 0.95);

/// `c_b / c_w` is drawn uniformly from this range.
const BCET_RATIO_RANGE: (f64, f64) = (0.5, 1.0);

/// Harmonic multiples tried under [`PeriodModel::HarmonicStress`]:
/// `base * 2^k` for `k` in `-HARMONIC_SPAN..=HARMONIC_SPAN`.
const HARMONIC_SPAN: i32 = 6;

/// How task sampling periods (and hence `(a, b)` stability coefficients)
/// are drawn — the generator profile of a benchmark distribution.
///
/// All profiles share the §V scaffolding (UUniFast utilizations, pool
/// plants, uniform best-case ratio); they differ only in the period draw:
///
/// * [`GridSnapped`](PeriodModel::GridSnapped) — the legacy model:
///   periods snap to a ~10-entry per-plant grid on the 1-2-5 engineering
///   series ([`margin_tables`]). **Frozen**: bit-identical task sets for
///   existing seeds are part of the regression surface.
/// * [`Continuous`](PeriodModel::Continuous) — periods drawn
///   log-uniformly over each plant's full stabilizable range, with
///   `(a, b)` from the validated margin interpolant
///   ([`interpolated_tables`]). Closest to the paper's (under-specified)
///   setup; the neutral baseline of the continuous family.
/// * [`HarmonicStress`](PeriodModel::HarmonicStress) — the first task
///   draws continuously; later tasks prefer near-harmonic (`2^k`-multiple
///   ±1%) periods. Near-harmonic relations drive the response-time
///   fixed-point cascades behind the paper's anomalies.
/// * [`MarginTight`](PeriodModel::MarginTight) — an **adversarial**
///   profile: starting from a harmonic-stress draw, it hunts the
///   certificate-lie geometry of the paper's §IV anomaly algebra
///   (scanning victims, removable subsets, and a fine sweep of the most
///   jitter-sensitive task's period), planting the full invalid-output
///   geometry by tightening stability bounds whenever a draw admits it;
///   otherwise it commits the sweep point with the tightest stable
///   worst-case slack — the co-design pressure of picking the most
///   performance-hungry period the schedule still tolerates. The
///   measured planting rate is itself a finding: see EXPERIMENTS.md's
///   Table I section for why the geometry is structurally absent under
///   this margin pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PeriodModel {
    /// Legacy grid-snapped periods (bit-frozen; the default).
    #[default]
    GridSnapped,
    /// Log-uniform continuous periods via the margin interpolant.
    Continuous,
    /// Near-harmonic period clusters (anomaly stress).
    HarmonicStress,
    /// Continuous periods biased toward tight stability margins.
    MarginTight,
}

impl PeriodModel {
    /// Every profile, in canonical (documentation) order.
    pub const ALL: [PeriodModel; 4] = [
        PeriodModel::GridSnapped,
        PeriodModel::Continuous,
        PeriodModel::HarmonicStress,
        PeriodModel::MarginTight,
    ];

    /// Stable kebab-case name (CLI flag value, CSV/witness tag).
    pub fn name(self) -> &'static str {
        match self {
            PeriodModel::GridSnapped => "grid-snapped",
            PeriodModel::Continuous => "continuous",
            PeriodModel::HarmonicStress => "harmonic-stress",
            PeriodModel::MarginTight => "margin-tight",
        }
    }

    /// Parses a [`PeriodModel::name`] back into the profile.
    pub fn parse(s: &str) -> Option<PeriodModel> {
        PeriodModel::ALL.into_iter().find(|m| m.name() == s)
    }
}

impl std::fmt::Display for PeriodModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of the random benchmark generator. Every configuration
/// draws total utilization from `[0.5, 0.95]` and `c_b/c_w` from
/// `[0.5, 1.0]`.
#[derive(Debug, Clone)]
pub struct BenchmarkConfig {
    /// Number of control tasks per benchmark.
    pub n: usize,
    /// Period distribution (generator profile).
    pub period_model: PeriodModel,
}

impl BenchmarkConfig {
    /// `n` tasks with legacy grid-snapped periods.
    pub fn new(n: usize) -> Self {
        BenchmarkConfig::with_model(n, PeriodModel::GridSnapped)
    }

    /// `n` tasks under an explicit [`PeriodModel`].
    pub fn with_model(n: usize, period_model: PeriodModel) -> Self {
        BenchmarkConfig { n, period_model }
    }
}

/// Generates one random benchmark: `n` control tasks with plants drawn
/// from the pool, periods from the configured [`PeriodModel`],
/// utilizations from UUniFast, and `(a, b)` stability coefficients from
/// the pre-computed margin tables (grid-snapped) or the validated margin
/// interpolant (all other profiles).
///
/// # Examples
///
/// ```
/// use csa_experiments::{generate_benchmark, BenchmarkConfig, PeriodModel};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let tasks = generate_benchmark(&BenchmarkConfig::new(6), &mut rng);
/// assert_eq!(tasks.len(), 6);
/// assert!(tasks.iter().all(|t| !t.label().is_empty()));
///
/// let cfg = BenchmarkConfig::with_model(6, PeriodModel::Continuous);
/// let tasks = generate_benchmark(&cfg, &mut StdRng::seed_from_u64(1));
/// assert_eq!(tasks.len(), 6);
/// ```
pub fn generate_benchmark<R: Rng + ?Sized>(
    config: &BenchmarkConfig,
    rng: &mut R,
) -> Vec<ControlTask> {
    match config.period_model {
        PeriodModel::GridSnapped => generate_grid_snapped(config, rng),
        model => generate_interpolated(config, model, rng),
    }
}

/// The legacy grid-snapped generator.
///
/// **Bit-frozen**: every RNG draw (order and count) and every rounding
/// step must stay exactly as shipped in PR 2 — seeded experiment outputs
/// (EXPERIMENTS.md tables, bench fixtures, the witness corpus) are
/// regression surfaces. The per-task independent `c_worst` rounding here
/// lets total utilization drift a hair past the drawn value; the
/// interpolated profiles fix that with [`round_c_worst_largest_remainder`],
/// but this path keeps the historical behavior on purpose.
fn generate_grid_snapped<R: Rng + ?Sized>(
    config: &BenchmarkConfig,
    rng: &mut R,
) -> Vec<ControlTask> {
    let tables = margin_tables();
    let (u_lo, u_hi) = UTILIZATION_RANGE;
    let total_u = rng.gen_range(u_lo..=u_hi);
    let utils = uunifast(config.n, total_u, rng);
    let (r_lo, r_hi) = BCET_RATIO_RANGE;

    utils
        .into_iter()
        .enumerate()
        .map(|(i, u)| {
            let table: &PlantMargins = &tables[rng.gen_range(0..tables.len())];
            let entry = table.entries[rng.gen_range(0..table.entries.len())];
            let period = Ticks::from_secs_f64(entry.period);
            let c_worst = Ticks::new(((u * period.get() as f64).round() as u64).max(1)).min(period);
            let ratio = rng.gen_range(r_lo..=r_hi);
            let c_best =
                Ticks::new(((ratio * c_worst.get() as f64).round() as u64).max(1)).min(c_worst);
            #[expect(clippy::expect_used, reason = "P001: valid by construction")]
            let task = Task::new(TaskId::new(i as u32), c_best, c_worst, period)
                .expect("generated task is valid by construction");
            #[expect(clippy::expect_used, reason = "P001: tables hold a >= 1, b >= 0")]
            let bound = StabilityBound::new(entry.a, entry.b)
                .expect("margin tables guarantee a >= 1, b >= 0");
            ControlTask::with_label(task, bound, table.name)
        })
        .collect()
}

/// The continuous-period generator family (`Continuous`,
/// `HarmonicStress`, `MarginTight`): periods drawn from the margin
/// interpolant's stabilizable runs, worst cases rounded with the
/// largest-remainder scheme so total utilization never drifts past the
/// drawn value.
fn generate_interpolated<R: Rng + ?Sized>(
    config: &BenchmarkConfig,
    model: PeriodModel,
    rng: &mut R,
) -> Vec<ControlTask> {
    let usable: Vec<&MarginInterp> = interpolated_tables()
        .iter()
        .filter(|t| t.is_usable())
        .collect();
    assert!(!usable.is_empty(), "no interpolable plant in the pool");
    let (u_lo, u_hi) = UTILIZATION_RANGE;
    let total_u = rng.gen_range(u_lo..=u_hi);
    let utils = uunifast(config.n, total_u, rng);
    let (r_lo, r_hi) = BCET_RATIO_RANGE;

    // Phase 1: plant + period + margin coefficients + best-case ratio
    // per task. All models start from a continuous-family draw.
    let mut draws: Vec<TaskDraw> = Vec::with_capacity(config.n);
    let mut harmonic_base = f64::NAN;
    for &util in utils.iter().take(config.n) {
        let plant = rng.gen_range(0..usable.len());
        let interp = usable[plant];
        let entry = match model {
            PeriodModel::Continuous => interp.sample(rng),
            PeriodModel::HarmonicStress | PeriodModel::MarginTight => {
                sample_harmonic(interp, &mut harmonic_base, rng)
            }
            PeriodModel::GridSnapped => unreachable!("handled by generate_grid_snapped"),
        };
        draws.push(TaskDraw {
            plant,
            entry,
            util,
            ratio: rng.gen_range(r_lo..=r_hi),
        });
    }

    // Phase 2 (MarginTight only): adversarial certificate-lie search.
    if model == PeriodModel::MarginTight {
        refine_margin_tight(&usable, &mut draws, rng);
    }

    // Phase 3: worst cases across the whole set (largest remainder), then
    // per-task best cases.
    let periods: Vec<Ticks> = draws
        .iter()
        .map(|d| Ticks::from_secs_f64(d.entry.period))
        .collect();
    // Per-task utilizations come from the draws: MarginTight may have
    // permuted the (exchangeable) UUniFast shares among the tasks.
    let final_utils: Vec<f64> = draws.iter().map(|d| d.util).collect();
    let c_worsts = round_c_worst_largest_remainder(&final_utils, &periods);
    (0..config.n)
        .map(|i| {
            let d = &draws[i];
            build_control_task(
                i,
                usable[d.plant].name,
                &d.entry,
                c_worsts[i],
                d.ratio,
                periods[i],
            )
        })
        .collect()
}

/// One task's generator state between phases: the plant (index into the
/// usable interpolants), the committed margin entry (which carries the
/// period), the drawn utilization, and the best-case ratio.
#[derive(Debug, Clone, Copy)]
struct TaskDraw {
    plant: usize,
    entry: MarginEntry,
    util: f64,
    ratio: f64,
}

/// Builds the final control task of one draw.
fn build_control_task(
    i: usize,
    label: &'static str,
    entry: &MarginEntry,
    c_worst: Ticks,
    ratio: f64,
    period: Ticks,
) -> ControlTask {
    let c_best = Ticks::new(((ratio * c_worst.get() as f64).round() as u64).max(1)).min(c_worst);
    #[expect(clippy::expect_used, reason = "P001: valid by construction")]
    let task = Task::new(TaskId::new(i as u32), c_best, c_worst, period)
        .expect("generated task is valid by construction");
    #[expect(clippy::expect_used, reason = "P001: interpolant has a >= 1, b > 0")]
    let bound =
        StabilityBound::new(entry.a, entry.b).expect("interpolant guarantees a >= 1, b > 0");
    ControlTask::with_label(task, bound, label)
}

/// A provisional task for the boundary-seeking refinement: per-task
/// independent rounding (the final set is re-rounded with the
/// largest-remainder pass).
fn provisional_task(i: usize, label: &'static str, d: &TaskDraw) -> ControlTask {
    let period = Ticks::from_secs_f64(d.entry.period);
    let c_worst = Ticks::new(((d.util * period.get() as f64).round() as u64).max(1)).min(period);
    build_control_task(i, label, &d.entry, c_worst, d.ratio, period)
}

/// One `HarmonicStress` period draw: the first task anchors the base
/// period; later tasks pick a random supported `2^k` multiple of the base
/// with ±1% multiplicative jitter, falling back to a plain continuous
/// draw when no multiple lands in the plant's stabilizable runs.
fn sample_harmonic<R: Rng + ?Sized>(
    interp: &MarginInterp,
    base: &mut f64,
    rng: &mut R,
) -> MarginEntry {
    if base.is_nan() {
        let entry = interp.sample(rng);
        *base = entry.period;
        return entry;
    }
    let jitter = 0.99 + 0.02 * rng.gen::<f64>();
    let candidates: Vec<MarginEntry> = (-HARMONIC_SPAN..=HARMONIC_SPAN)
        .filter_map(|k| interp.eval(*base * 2f64.powi(k) * jitter))
        .collect();
    if candidates.is_empty() {
        interp.sample(rng)
    } else {
        candidates[rng.gen_range(0..candidates.len())]
    }
}

/// The `MarginTight` refinement: keep the harmonic-stress period stack
/// (it carries the response-time fixed-point cascades), shape the free
/// per-task quantities — the exchangeable UUniFast shares and the
/// best-case ratios, both within their drawn supports — toward the
/// **certificate-lie geometry** of the paper's §IV anomaly algebra, and
/// sweep only the victim's period across its plant's stabilizable range
/// hunting a configuration where the geometry closes:
///
/// 1. *Planted lie* — the victim (the most jitter-sensitive task) is
///    stable under maximum interference, the slack ordering seats other
///    tasks below it, and it is unstable against exactly the
///    higher-priority set that ordering leaves above it: losing the
///    interference below grew its jitter term faster than it shrank its
///    latency, so the worst-case monotonicity certificate lies.
/// 2. *Tight* — otherwise, the stable sweep point with the smallest
///    worst-case slack (the co-design pressure of picking the most
///    performance-hungry period the schedule still tolerates).
/// 3. *Feasible* — otherwise, the largest (least negative) slack,
///    preserving solvability.
///
/// Only exact per-task stability checks are consulted — never the
/// assignment heuristic under test. `MarginTight` is nevertheless an
/// **adversarial stress profile**: it concentrates probability mass on
/// the borderline geometry where skipped re-verification goes wrong,
/// the way fault-injection suites concentrate on fault-activating
/// inputs. The neutral `Continuous` / `HarmonicStress` profiles measure
/// how often that geometry arises spontaneously (essentially never at
/// paper scale); this profile measures what Unsafe Quadratic does when
/// it arrives.
fn refine_margin_tight<R: Rng + ?Sized>(
    usable: &[&MarginInterp],
    draws: &mut [TaskDraw],
    rng: &mut R,
) {
    let n = draws.len();
    if n < 2 {
        return;
    }
    let mut provisional: Vec<ControlTask> = draws
        .iter()
        .enumerate()
        .map(|(i, d)| provisional_task(i, usable[d.plant].name, d))
        .collect();
    let hp_of = |t: usize| -> Vec<usize> { (0..n).filter(|&z| z != t).collect() };

    // Pass 1: scan the natural draw for a certificate lie: any victim
    // and any removable subset of stable larger-slack tasks.
    let verdicts: Vec<TaskVerdict> = (0..n)
        .map(|x| check_task(&provisional, x, &hp_of(x)))
        .collect();
    for v in 0..n {
        if let Some(below) = find_lie_subset(&provisional, &verdicts, v) {
            tighten_bystanders(draws, &verdicts, v, &below);
            return;
        }
    }

    // Pass 2: sweep the most jitter-sensitive task's period (largest
    // fitted `a`, ties to the lowest index) across its plant's
    // stabilizable range on a fine log grid (randomly phased so the
    // committed distribution stays smooth), hunting a sweep point whose
    // response cascade produces the lie against the frozen
    // near-harmonic backdrop. Fallback tiers when no lie exists:
    // 1 = stable (tightest worst-case slack — the co-design pressure of
    // the most performance-hungry period the schedule tolerates),
    // 0 = unstable (largest slack, preserving solvability).
    #[expect(clippy::expect_used, reason = "P001: n >= 2 here")]
    let victim = (0..n)
        .min_by(|&x, &y| {
            draws[y]
                .entry
                .a
                .total_cmp(&draws[x].entry.a)
                .then(x.cmp(&y))
        })
        .expect("set is non-empty");
    let interp_v = usable[draws[victim].plant];
    let phase = rng.gen::<f64>();
    #[expect(clippy::expect_used, reason = "P001: usable interpolants only")]
    let (lo, hi) = interp_v
        .period_range()
        .expect("usable interpolant has a range");
    let mut scan: Vec<MarginEntry> = (0..MARGIN_TIGHT_SCAN_POINTS)
        .filter_map(|s| {
            let t = (s as f64 + phase) / MARGIN_TIGHT_SCAN_POINTS as f64;
            interp_v.eval(crate::grid::log_period_point(lo, hi, t))
        })
        .collect();
    scan.insert(0, draws[victim].entry);
    let hp_victim = hp_of(victim);
    let mut best: Option<(bool, f64, MarginEntry)> = None;
    for &ev in &scan {
        provisional[victim] = provisional_task(
            victim,
            usable[draws[victim].plant].name,
            &TaskDraw {
                entry: ev,
                ..draws[victim]
            },
        );
        let v = check_task(&provisional, victim, &hp_victim);
        if v.stable {
            let verdicts: Vec<TaskVerdict> = (0..n)
                .map(|x| {
                    if x == victim {
                        v
                    } else {
                        check_task(&provisional, x, &hp_of(x))
                    }
                })
                .collect();
            for lv in 0..n {
                if let Some(below) = find_lie_subset(&provisional, &verdicts, lv) {
                    draws[victim].entry = ev;
                    tighten_bystanders(draws, &verdicts, lv, &below);
                    return;
                }
            }
        }
        let better = match best {
            None => true,
            Some((best_stable, best_slack, _)) => match (v.stable, best_stable) {
                (true, false) => true,
                (false, true) => false,
                (true, true) => v.slack.total_cmp(&best_slack).is_lt(),
                (false, false) => v.slack.total_cmp(&best_slack).is_gt(),
            },
        };
        if better {
            best = Some((v.stable, v.slack, ev));
        }
    }
    #[expect(clippy::expect_used, reason = "P001: the scan holds the drawn entry")]
    let (_, _, ev) = best.expect("at least one candidate is evaluated");
    draws[victim].entry = ev;
}

/// Finds a certificate lie for victim `v`: a non-empty subset `B` of
/// tasks, each stable under maximum interference with strictly larger
/// worst-case slack than `v` (so each can legitimately sit *below* `v`
/// in the criticality ordering, the largest anchoring the bottom), whose
/// collective removal from `v`'s interference destabilizes `v` — the
/// non-monotone jitter move of the paper's §IV anomaly algebra, in its
/// general multi-removal form. Subsets are scanned in ascending
/// bitmask order (single removals first), so the result is a pure
/// function of the set.
fn find_lie_subset(set: &[ControlTask], verdicts: &[TaskVerdict], v: usize) -> Option<Vec<usize>> {
    let n = set.len();
    if !verdicts[v].stable {
        return None;
    }
    let cands: Vec<usize> = (0..n)
        .filter(|&x| {
            x != v && verdicts[x].stable && verdicts[x].slack.total_cmp(&verdicts[v].slack).is_gt()
        })
        .collect();
    // Bounded enumeration: at experiment scales |cands| is tiny; the cap
    // keeps wide sets linear-ish (singles and pairs come first anyway).
    let masks = (1u32 << cands.len().min(5)) - 1;
    for mask in 1..=masks {
        let below: Vec<usize> = cands
            .iter()
            .enumerate()
            .filter(|&(ci, _)| mask & (1 << ci) != 0)
            .map(|(_, &x)| x)
            .collect();
        let hp: Vec<usize> = (0..n).filter(|&x| x != v && !below.contains(&x)).collect();
        if !check_task(set, v, &hp).stable {
            return Some(below);
        }
    }
    None
}

/// Converts a found certificate lie into the full invalid geometry by
/// *tightening the bystanders' stability bounds*: every task other than
/// the victim `v` and the `below` subset whose worst-case slack would
/// seat it below the victim gets a stricter delay budget `b` — still a
/// valid conservative requirement (any tighter bound is; think
/// application-imposed safety factors) — placing its slack at a distinct
/// fraction of the victim's. The criticality ordering then reads: the
/// `below` tasks underneath the victim (the largest-slack one at the
/// bottom, where the worst-case check is exact and genuinely holds),
/// the victim directly above them, everything else higher still. The
/// victim's worst-case certificate holds, is never re-verified, and is
/// a lie at exactly the position the ordering assigns — the slack shift
/// is linear in `b`, so the placement is exact without re-running any
/// response-time analysis.
fn tighten_bystanders(draws: &mut [TaskDraw], verdicts: &[TaskVerdict], v: usize, below: &[usize]) {
    let s_v = verdicts[v].slack;
    debug_assert!(s_v > 0.0);
    let mut theta = 0.85f64;
    for (x, d) in draws.iter_mut().enumerate() {
        if x == v || below.contains(&x) {
            continue;
        }
        if verdicts[x].slack.total_cmp(&s_v).is_ge() {
            // slack' = b' - (L + aJ) = theta * s_v, exactly.
            d.entry.b = (d.entry.b - verdicts[x].slack) + theta * s_v;
            debug_assert!(d.entry.b > 0.0);
            theta *= 0.8; // distinct fractions: no slack ties
        }
    }
}

/// Rounds per-task worst-case execution times to ticks with the
/// largest-remainder method, so the *set's* total utilization never
/// drifts past the drawn value.
///
/// Each ideal worst case `u_i * T_i` is floored (never exceeding the
/// target); the tasks are then bumped one tick each in order of
/// decreasing fractional remainder while the running total stays at or
/// below the drawn utilization. The only way the total can exceed the
/// target is the 1-tick execution floor on near-zero utilizations —
/// bounded by one tick per task.
fn round_c_worst_largest_remainder(utils: &[f64], periods: &[Ticks]) -> Vec<Ticks> {
    let n = utils.len();
    let drawn: f64 = utils.iter().sum();
    let mut c: Vec<u64> = Vec::with_capacity(n);
    let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(n);
    for i in 0..n {
        let t = periods[i].get();
        let ideal = utils[i] * t as f64;
        c.push((ideal.floor() as u64).clamp(1, t));
        remainders.push((i, ideal - ideal.floor()));
    }
    let mut total: f64 = (0..n).map(|i| c[i] as f64 / periods[i].get() as f64).sum();
    // Largest fractional remainder first; ties broken by index so the
    // result is a pure function of the inputs.
    remainders.sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
    for (i, _) in remainders {
        let t = periods[i].get();
        let step = 1.0 / t as f64;
        if c[i] < t && total + step <= drawn + 1e-12 {
            c[i] += 1;
            total += step;
        }
    }
    c.into_iter().map(Ticks::new).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn benchmarks_respect_model_invariants() {
        let mut rng = StdRng::seed_from_u64(42);
        for model in PeriodModel::ALL {
            for n in [4usize, 8, 20] {
                let cfg = BenchmarkConfig::with_model(n, model);
                for _ in 0..10 {
                    let tasks = generate_benchmark(&cfg, &mut rng);
                    assert_eq!(tasks.len(), n);
                    let mut u = 0.0;
                    for t in &tasks {
                        assert!(t.task().c_best() >= Ticks::new(1));
                        assert!(t.task().c_best() <= t.task().c_worst());
                        assert!(t.task().c_worst() <= t.task().period());
                        assert!(t.bound().a() >= 1.0);
                        assert!(t.bound().b() > 0.0);
                        u += t.task().utilization();
                    }
                    match model {
                        // Legacy independent rounding: tolerate the
                        // historical drift (the model is bit-frozen).
                        PeriodModel::GridSnapped => {
                            assert!(u < 1.0 + 0.05, "generated utilization {u}");
                        }
                        // Largest-remainder rounding: at most the 1-tick
                        // execution floor per task past the drawn total,
                        // and the drawn total is at most 0.95.
                        _ => {
                            let tick_floor: f64 = tasks
                                .iter()
                                .map(|t| 1.0 / t.task().period().get() as f64)
                                .sum();
                            assert!(
                                u <= 0.95 + tick_floor + 1e-9,
                                "{model}: generated utilization {u} drifted past the drawn range"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        for model in PeriodModel::ALL {
            let cfg = BenchmarkConfig::with_model(6, model);
            let a = generate_benchmark(&cfg, &mut StdRng::seed_from_u64(7));
            let b = generate_benchmark(&cfg, &mut StdRng::seed_from_u64(7));
            assert_eq!(a, b, "{model} not deterministic");
        }
    }

    #[test]
    fn uses_multiple_plants() {
        for model in PeriodModel::ALL {
            let mut rng = StdRng::seed_from_u64(3);
            let cfg = BenchmarkConfig::with_model(20, model);
            let tasks = generate_benchmark(&cfg, &mut rng);
            let mut labels: Vec<&str> = tasks.iter().map(|t| t.label()).collect();
            labels.sort_unstable();
            labels.dedup();
            assert!(labels.len() >= 3, "{model}: only plants {labels:?} used");
        }
    }

    #[test]
    fn profile_names_roundtrip() {
        for model in PeriodModel::ALL {
            assert_eq!(PeriodModel::parse(model.name()), Some(model));
            assert_eq!(model.to_string(), model.name());
        }
        assert_eq!(PeriodModel::parse("nonsense"), None);
        assert_eq!(PeriodModel::default(), PeriodModel::GridSnapped);
    }

    #[test]
    fn continuous_periods_leave_the_grid() {
        // The whole point of the continuous family: periods are NOT all
        // members of the legacy snapped grid.
        let mut rng = StdRng::seed_from_u64(11);
        let cfg = BenchmarkConfig::with_model(20, PeriodModel::Continuous);
        let tasks = generate_benchmark(&cfg, &mut rng);
        let grid: Vec<u64> = margin_tables()
            .iter()
            .flat_map(|t| {
                t.entries
                    .iter()
                    .map(|e| Ticks::from_secs_f64(e.period).get())
            })
            .collect();
        let off_grid = tasks
            .iter()
            .filter(|t| !grid.contains(&t.task().period().get()))
            .count();
        assert!(
            off_grid * 2 > tasks.len(),
            "only {off_grid}/20 periods off the legacy grid"
        );
    }

    #[test]
    fn harmonic_stress_clusters_periods() {
        // Most period pairs should be near-harmonic (ratio within 2% of
        // a power of two).
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = BenchmarkConfig::with_model(8, PeriodModel::HarmonicStress);
        let mut near = 0usize;
        let mut total = 0usize;
        for _ in 0..20 {
            let tasks = generate_benchmark(&cfg, &mut rng);
            let periods: Vec<f64> = tasks
                .iter()
                .map(|t| t.task().period().get() as f64)
                .collect();
            for i in 0..periods.len() {
                for j in i + 1..periods.len() {
                    total += 1;
                    let r = (periods[i] / periods[j]).log2();
                    if (r - r.round()).abs() < 0.03 {
                        near += 1;
                    }
                }
            }
        }
        assert!(
            near * 3 >= total * 2,
            "only {near}/{total} period pairs near-harmonic"
        );
    }

    #[test]
    fn margin_tight_is_tighter_than_continuous() {
        // The selection bias must show up as a smaller mean normalized
        // delay budget b / h.
        let mean_tightness = |model: PeriodModel| {
            let mut rng = StdRng::seed_from_u64(13);
            let cfg = BenchmarkConfig::with_model(8, model);
            let mut sum = 0.0;
            let mut count = 0usize;
            for _ in 0..30 {
                for t in generate_benchmark(&cfg, &mut rng) {
                    sum += t.bound().b() / (t.task().period().get() as f64 * 1e-9);
                    count += 1;
                }
            }
            sum / count as f64
        };
        let tight = mean_tightness(PeriodModel::MarginTight);
        let cont = mean_tightness(PeriodModel::Continuous);
        assert!(
            tight < cont,
            "margin-tight mean b/h {tight} not below continuous {cont}"
        );
    }

    #[test]
    fn largest_remainder_rounding_never_exceeds_drawn_total() {
        let periods: Vec<Ticks> = [1_000_000u64, 2_500_000, 40_000_000, 7_000_000]
            .into_iter()
            .map(Ticks::new)
            .collect();
        let utils = [0.301_234_5, 0.150_000_7, 0.249_999_9, 0.198_765_3];
        let c = round_c_worst_largest_remainder(&utils, &periods);
        let drawn: f64 = utils.iter().sum();
        let total: f64 = c
            .iter()
            .zip(&periods)
            .map(|(c, t)| c.get() as f64 / t.get() as f64)
            .sum();
        assert!(total <= drawn + 1e-9, "total {total} > drawn {drawn}");
        // Each worst case is within one tick of its ideal value.
        for ((&u, c), t) in utils.iter().zip(&c).zip(&periods) {
            let ideal = u * t.get() as f64;
            assert!(
                (c.get() as f64 - ideal).abs() <= 1.0,
                "c {} vs ideal {ideal}",
                c.get()
            );
        }
    }

    #[test]
    fn largest_remainder_rounding_honors_floors() {
        // Near-zero utilization still yields >= 1 tick; full utilization
        // never exceeds the period.
        let periods = vec![Ticks::new(1_000), Ticks::new(1_000)];
        let c = round_c_worst_largest_remainder(&[1e-12, 0.999_999_9], &periods);
        assert_eq!(c[0], Ticks::new(1));
        assert!(c[1] <= Ticks::new(1_000));
    }

    /// Pins the legacy grid-snapped generator bit-for-bit: these exact
    /// task parameters were produced by the PR 2 generator at this seed.
    /// Any diff here breaks every recorded experiment table and the
    /// witness corpus — do not update the expectations casually.
    #[test]
    fn grid_snapped_is_bit_frozen() {
        let mut rng = StdRng::seed_from_u64(2017);
        let tasks = generate_benchmark(&BenchmarkConfig::new(4), &mut rng);
        let got: Vec<(String, u64, u64, u64, u64, u64)> = tasks
            .iter()
            .map(|t| {
                (
                    t.label().to_string(),
                    t.task().c_best().get(),
                    t.task().c_worst().get(),
                    t.task().period().get(),
                    t.bound().a().to_bits(),
                    t.bound().b().to_bits(),
                )
            })
            .collect();
        let expected = expected_grid_snapped_seed_2017();
        assert_eq!(got, expected, "legacy grid-snapped generator drifted");
    }

    /// Captured from the shipped PR 2 generator (see
    /// `grid_snapped_is_bit_frozen`). The `u64` pairs at the end are the
    /// IEEE-754 bit patterns of the `(a, b)` stability coefficients.
    fn expected_grid_snapped_seed_2017() -> Vec<(String, u64, u64, u64, u64, u64)> {
        [
            (
                "oscillator",
                2_947_758u64,
                3_475_275u64,
                25_000_000u64,
                4_611_700_642_842_524_316u64,
                4_586_601_363_376_858_726u64,
            ),
            (
                "oscillator",
                48_537,
                87_403,
                40_000_000,
                4_612_566_533_609_445_289,
                4_587_474_299_464_911_421,
            ),
            (
                "oscillator",
                218_688,
                323_995,
                25_000_000,
                4_611_700_642_842_524_316,
                4_586_601_363_376_858_726,
            ),
            (
                "double_integrator",
                3_147_307,
                5_872_055,
                8_000_000,
                4_608_055_994_378_528_379,
                4_585_193_462_713_072_748,
            ),
        ]
        .into_iter()
        .map(|(l, cb, cw, t, a, b)| (l.to_string(), cb, cw, t, a, b))
        .collect()
    }
}
