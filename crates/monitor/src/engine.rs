//! The monitoring engine: deterministic batch windows over a bank of
//! finished assessments, baseline lifecycle, and the anomaly event
//! machine.
//!
//! # Determinism contract
//!
//! A batch window of `K` requests is processed in ascending request-id
//! order regardless of arrival interleaving, and each request's
//! assessment exposes only memo-invariant quantities (verdicts,
//! logical check counts, truncation flags, slacks, census classes).
//! An assessment is a pure function of the task set and the engine's
//! [`SearchConfig`], so each batch group of equal sets is classified
//! once and the result is banked whole for later equal sets. Banking
//! therefore changes *latency only* — the response stream, the learned
//! baseline, and every emitted event are bit-identical at any batch
//! size, thread count, and bank state (covered by the
//! `service_vs_batch` differential suite).
//!
//! # Event machine
//!
//! Once the baseline locks, each folded request evaluates a fixed
//! trigger order (quarantine → margin z-scores → census classes →
//! truncation drift). A class fires only after `persistence`
//! consecutive triggering requests (1 for the discrete classes) and is
//! then silenced for `cooldown` further requests.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use csa_core::{ControlTask, StabilityChecker};
use csa_experiments::artifact::{hex, Fnv64};
use csa_experiments::{
    classify_instance_on, generate_benchmark, instance_seed, parallel_map_catching,
    BenchmarkConfig, SearchConfig, WitnessKind,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::baseline::{Baseline, Lifecycle};
use crate::request::{AnomalyEvent, EventClass, Metric, Payload, Request, Response, Verdict};

/// Configuration of a [`MonitorEngine`].
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorConfig {
    /// Requests buffered before a batch is processed (1 = singleton).
    pub batch_window: usize,
    /// Worker threads for batch stages (0 = available parallelism).
    pub threads: usize,
    /// The assignment search deciding each admission.
    pub search: SearchConfig,
    /// Nominal samples required before the baseline can lock.
    pub min_samples: u64,
    /// Distinct `(n, profile)` cells required before the lock.
    pub min_coverage: usize,
    /// Fire a margin event at `z <= -z_threshold`.
    pub z_threshold: f64,
    /// Consecutive triggering requests required for continuous classes.
    pub persistence: u64,
    /// Requests a fired class stays silenced for.
    pub cooldown: u64,
    /// Trailing-window length for the truncation-rate drift detector.
    pub drift_window: usize,
    /// Drift fires at `trailing_rate - baseline_rate >= drift_threshold`.
    pub drift_threshold: f64,
    /// Maximum task-set assessments kept banked (FIFO eviction; a hit
    /// moves to the back).
    pub memo_tables: usize,
}

impl Default for MonitorConfig {
    fn default() -> MonitorConfig {
        MonitorConfig {
            batch_window: 8,
            threads: 1,
            search: SearchConfig::default(),
            min_samples: 64,
            min_coverage: 1,
            z_threshold: 3.0,
            persistence: 2,
            cooldown: 16,
            drift_window: 32,
            drift_threshold: 0.25,
            memo_tables: 512,
        }
    }
}

/// [`Fnv64`] over every field of the task list (labels, execution times,
/// periods, and the raw `(a, b)` float bits): the assessment bank's
/// task-set fingerprint. It is verified by full equality on every take,
/// so a collision can only cost a reclassification, never correctness.
pub(crate) fn task_fingerprint(tasks: &[ControlTask]) -> u64 {
    let mut h = Fnv64::default();
    for t in tasks {
        h.write_bytes(t.label().as_bytes());
        for v in [
            t.task().c_best().get(),
            t.task().c_worst().get(),
            t.task().period().get(),
            t.bound().a().to_bits(),
            t.bound().b().to_bits(),
        ] {
            h.write_u64(v);
        }
    }
    h.finish()
}

/// One finished classification: the assessment every equal task set
/// gets, the logical checks it costs each request, and the checks its
/// run computed.
#[derive(Debug, Clone)]
struct Banked {
    assessment: Assessment,
    logical: u64,
    computed: u64,
}

/// Finished classifications keyed by task-set fingerprint, FIFO-bounded.
#[derive(Debug)]
pub(crate) struct AssessmentBank {
    entries: BTreeMap<u64, (Vec<ControlTask>, Banked)>,
    order: VecDeque<u64>,
    cap: usize,
}

impl AssessmentBank {
    fn new(cap: usize) -> AssessmentBank {
        AssessmentBank {
            entries: BTreeMap::new(),
            order: VecDeque::new(),
            cap: cap.max(1),
        }
    }

    /// Removes and returns the entry for `fingerprint` — only if the
    /// stored task set is *equal* to `tasks` (another set's assessment
    /// would be a wrong answer, not a slow one).
    fn take(&mut self, fingerprint: u64, tasks: &[ControlTask]) -> Option<Banked> {
        match self.entries.remove(&fingerprint) {
            Some((stored, banked)) if stored == tasks => {
                self.order.retain(|&fp| fp != fingerprint);
                Some(banked)
            }
            Some(entry) => {
                // Fingerprint collision: keep the resident entry, treat
                // as a miss.
                self.entries.insert(fingerprint, entry);
                None
            }
            None => None,
        }
    }

    /// Stores (or refreshes) an entry, evicting FIFO past the cap.
    fn put(&mut self, fingerprint: u64, tasks: Vec<ControlTask>, banked: Banked) {
        if self.entries.insert(fingerprint, (tasks, banked)).is_none() {
            self.order.push_back(fingerprint);
        }
        while self.entries.len() > self.cap {
            match self.order.pop_front() {
                Some(old) => {
                    self.entries.remove(&old);
                }
                None => break,
            }
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Persistence/cooldown state of one event class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct EventState {
    /// Consecutive triggering requests so far.
    pub(crate) streak: u64,
    /// Sequence number of the last fired event, if any.
    pub(crate) last_fired: Option<u64>,
}

/// Memo-invariant result of assessing one task set.
#[derive(Debug, Clone, PartialEq)]
struct Assessment {
    verdict: Verdict,
    checks: u64,
    truncated: bool,
    slack: Option<f64>,
    norm_slack: Option<f64>,
    anomalies: Vec<WitnessKind>,
}

/// Candidate trigger produced by one request, before persistence and
/// cooldown gating.
struct Trigger {
    class: EventClass,
    value: f64,
    z: Option<f64>,
    detail: String,
}

/// Per-request preparation computed sequentially before the parallel
/// stages (pure, so replay coordinates survive a stage panic).
struct Prep {
    n: usize,
    profile: String,
    replay_seed: u64,
}

/// One equal-task-set group inside a batch window.
struct Group {
    /// `None` for fingerprint-collision singletons (never banked).
    fingerprint: Option<u64>,
    tasks: Vec<ControlTask>,
    /// Indices into the sorted batch that share this task set.
    positions: Vec<usize>,
}

/// The online monitoring engine. See the module docs for the
/// determinism and event-machine contracts.
#[derive(Debug)]
pub struct MonitorEngine {
    pub(crate) config: MonitorConfig,
    pub(crate) baseline: Baseline,
    pub(crate) events_state: BTreeMap<String, EventState>,
    /// Trailing truncation flags of assessed requests (drift detector).
    pub(crate) window: VecDeque<bool>,
    bank: AssessmentBank,
    pending: Vec<Request>,
    pub(crate) processed: u64,
    pub(crate) events_emitted: u64,
    pub(crate) quarantined: u64,
    logical_checks: u64,
    computed_checks: u64,
}

impl MonitorEngine {
    /// Creates an idle engine with an empty building-phase baseline.
    pub fn new(config: MonitorConfig) -> MonitorEngine {
        let baseline = Baseline::new(config.min_samples, config.min_coverage);
        let bank = AssessmentBank::new(config.memo_tables);
        MonitorEngine {
            config,
            baseline,
            events_state: BTreeMap::new(),
            window: VecDeque::new(),
            bank,
            pending: Vec::new(),
            processed: 0,
            events_emitted: 0,
            quarantined: 0,
            logical_checks: 0,
            computed_checks: 0,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// The learned baseline.
    pub fn baseline(&self) -> &Baseline {
        &self.baseline
    }

    /// Current baseline lifecycle.
    pub fn lifecycle(&self) -> Lifecycle {
        self.baseline.lifecycle()
    }

    /// Requests fully processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Anomaly events emitted so far.
    pub fn events_emitted(&self) -> u64 {
        self.events_emitted
    }

    /// Requests quarantined after a contained evaluation panic.
    pub fn quarantined(&self) -> u64 {
        self.quarantined
    }

    /// Requests buffered but not yet processed.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Task-set assessments currently banked.
    pub fn memo_tables(&self) -> usize {
        self.bank.len()
    }

    /// Logical exact stability checks spent so far (memo-invariant):
    /// each assessed request counts its classification's checks plus its
    /// `n` slack checks, whether classified or served from the bank.
    /// Saturates at `u64::MAX`.
    pub fn logical_checks(&self) -> u64 {
        self.logical_checks
    }

    /// Checks whose fixed points actually ran: a classified group
    /// computes each distinct check once, a bank hit computes none —
    /// telemetry only, never part of a response.
    pub fn computed_checks(&self) -> u64 {
        self.computed_checks
    }

    /// Buffers one request; when the batch window fills, processes it
    /// and returns the window's responses (in ascending id order).
    pub fn submit(&mut self, request: Request) -> Vec<Response> {
        self.pending.push(request);
        if self.pending.len() >= self.config.batch_window.max(1) {
            self.process_batch()
        } else {
            Vec::new()
        }
    }

    /// Processes any buffered requests immediately (end of stream).
    pub fn flush(&mut self) -> Vec<Response> {
        if self.pending.is_empty() {
            Vec::new()
        } else {
            self.process_batch()
        }
    }

    fn process_batch(&mut self) -> Vec<Response> {
        let mut batch = std::mem::take(&mut self.pending);
        // Stable sort: ascending id, duplicate ids fall back to
        // arrival order (ids are documented unique).
        batch.sort_by_key(|r| r.id);

        // Sequential, pure prep: replay coordinates must exist even if
        // the parallel stages panic on this request.
        let preps: Vec<Prep> = batch.iter().map(prep_request).collect();

        // Stage A: materialize each task set (generator panics — e.g.
        // injected faults — are contained per request).
        let threads = self.config.threads;
        let materialized: Vec<Result<Vec<ControlTask>, String>> =
            parallel_map_catching(batch.len(), threads, |i| materialize(&batch[i]));

        // Group equal task sets so each group is classified once.
        let groups = group_batch(&materialized);

        // Bank look-up (sequential). A hit is taken out and put back
        // below with the misses, so it moves to the FIFO's back.
        let hits: Vec<Option<Banked>> = groups
            .iter()
            .map(|g| g.fingerprint.and_then(|fp| self.bank.take(fp, &g.tasks)))
            .collect();

        // Stage B: classify each missed group once, on a fresh checker.
        // Panics are contained per group.
        let search = self.config.search;
        let assessed: Vec<Result<Banked, String>> =
            parallel_map_catching(groups.len(), threads, |gi| match &hits[gi] {
                Some(banked) => banked.clone(),
                None => assess(&groups[gi].tasks, &search),
            });

        // Scatter each group's assessment to its requests' slots, count
        // checker telemetry, and bank the results.
        let mut slots: Vec<Option<Result<Assessment, String>>> =
            batch.iter().map(|_| None).collect();
        for (i, mat) in materialized.iter().enumerate() {
            if let Err(msg) = mat {
                slots[i] = Some(Err(msg.clone()));
            }
        }
        for ((group, hit), result) in groups.into_iter().zip(hits).zip(assessed) {
            match result {
                Ok(banked) => {
                    // Every request spends the logical checks; only a
                    // miss computed any, once for its whole group. One
                    // search may make u64::MAX checks, so saturate.
                    let spent = (group.positions.len() as u64).saturating_mul(banked.logical);
                    self.logical_checks = self.logical_checks.saturating_add(spent);
                    if hit.is_none() {
                        self.computed_checks += banked.computed;
                    }
                    for &pos in &group.positions {
                        slots[pos] = Some(Ok(banked.assessment.clone()));
                    }
                    if let Some(fp) = group.fingerprint {
                        self.bank.put(fp, group.tasks, banked);
                    }
                }
                Err(msg) => {
                    for &pos in &group.positions {
                        slots[pos] = Some(Err(msg.clone()));
                    }
                }
            }
        }

        // Sequential fold: lifecycle, events, responses — in id order.
        batch
            .iter()
            .zip(preps)
            .zip(slots)
            .map(|((request, prep), slot)| {
                // Every materialized slot was scattered above; a missing
                // one can only mean an internal bookkeeping bug, so fail
                // closed as a quarantine rather than panic.
                let outcome =
                    slot.unwrap_or_else(|| Err("internal: request missing from batch".to_string()));
                self.fold_request(request, &prep, outcome)
            })
            .collect()
    }

    fn fold_request(
        &mut self,
        request: &Request,
        prep: &Prep,
        outcome: Result<Assessment, String>,
    ) -> Response {
        self.processed += 1;
        let seq = self.processed;
        // The lifecycle *entering* this request decides whether events
        // are live; the locking request itself emits none.
        let was_locked = self.baseline.lifecycle() == Lifecycle::Locked;

        let (assessment, quarantine) = match outcome {
            Ok(a) => (a, None),
            Err(msg) => {
                self.quarantined += 1;
                let detail = format!("{msg}; replay seed {}", hex(prep.replay_seed));
                (
                    Assessment {
                        verdict: Verdict::Quarantined,
                        checks: 0,
                        truncated: false,
                        slack: None,
                        norm_slack: None,
                        anomalies: Vec::new(),
                    },
                    Some(detail),
                )
            }
        };

        if quarantine.is_none() {
            // Drift window tracks every assessed request.
            self.window.push_back(assessment.truncated);
            while self.window.len() > self.config.drift_window.max(1) {
                self.window.pop_front();
            }
            if !was_locked {
                self.baseline.observe_truncation(assessment.truncated);
                if assessment.verdict == Verdict::Admit
                    && !assessment.truncated
                    && assessment.anomalies.is_empty()
                {
                    if let (Some(s), Some(ns)) = (assessment.slack, assessment.norm_slack) {
                        self.baseline.observe_nominal(prep.n, &prep.profile, s, ns);
                    }
                }
                self.baseline.try_lock();
            }
        }

        let events = if was_locked {
            self.evaluate_events(seq, request.id, prep, &assessment, quarantine.as_deref())
        } else {
            Vec::new()
        };
        self.events_emitted += events.len() as u64;

        Response {
            id: request.id,
            seq,
            verdict: assessment.verdict,
            n: prep.n,
            profile: prep.profile.clone(),
            checks: assessment.checks,
            truncated: assessment.truncated,
            slack: assessment.slack,
            norm_slack: assessment.norm_slack,
            anomalies: assessment.anomalies,
            quarantine,
            lifecycle: self.baseline.lifecycle(),
            events,
        }
    }

    /// Evaluates the fixed trigger order against the locked baseline,
    /// then applies persistence and cooldown per class.
    fn evaluate_events(
        &mut self,
        seq: u64,
        request_id: u64,
        prep: &Prep,
        assessment: &Assessment,
        quarantine: Option<&str>,
    ) -> Vec<AnomalyEvent> {
        let mut triggers: Vec<Trigger> = Vec::new();

        if let Some(detail) = quarantine {
            triggers.push(Trigger {
                class: EventClass::Quarantine,
                value: 1.0,
                z: None,
                detail: detail.to_string(),
            });
        } else {
            if assessment.verdict == Verdict::Admit {
                if let Some(cell) = self.baseline.cell(prep.n, &prep.profile).copied() {
                    for metric in Metric::ALL {
                        let value = match metric {
                            Metric::Slack => assessment.slack,
                            Metric::NormSlack => assessment.norm_slack,
                        };
                        let Some(value) = value else { continue };
                        let stats = cell.stats[metric.index()];
                        let z = (value - stats.mean) / stats.std.max(1e-12);
                        if z <= -self.config.z_threshold {
                            triggers.push(Trigger {
                                class: EventClass::MarginZ(metric),
                                value,
                                z: Some(z),
                                detail: format!(
                                    "n={} profile={} mean={} std={} samples={}",
                                    prep.n, prep.profile, stats.mean, stats.std, stats.count
                                ),
                            });
                        }
                    }
                }
            }
            for &kind in &assessment.anomalies {
                triggers.push(Trigger {
                    class: EventClass::CensusAnomaly(kind),
                    value: 1.0,
                    z: None,
                    detail: format!("census class {} at n={}", kind.name(), prep.n),
                });
            }
            if self.window.len() >= self.config.drift_window.max(1) {
                if let Some(base) = self.baseline.truncation_rate() {
                    let hits = self.window.iter().filter(|&&t| t).count();
                    let rate = hits as f64 / self.window.len() as f64;
                    if rate - base >= self.config.drift_threshold {
                        triggers.push(Trigger {
                            class: EventClass::TruncationDrift,
                            value: rate,
                            z: None,
                            detail: format!(
                                "trailing rate {rate} vs baseline {base} over {} requests",
                                self.window.len()
                            ),
                        });
                    }
                }
            }
        }

        // Classes silent this request lose their streak.
        let triggered: BTreeSet<String> = triggers.iter().map(|t| t.class.name()).collect();
        for (name, state) in self.events_state.iter_mut() {
            if !triggered.contains(name) {
                state.streak = 0;
            }
        }

        let mut events = Vec::new();
        for trigger in triggers {
            let required = match trigger.class {
                EventClass::MarginZ(_) | EventClass::TruncationDrift => {
                    self.config.persistence.max(1)
                }
                EventClass::CensusAnomaly(_) | EventClass::Quarantine => 1,
            };
            let state = self.events_state.entry(trigger.class.name()).or_default();
            state.streak += 1;
            let cooled = match state.last_fired {
                Some(last) => seq.saturating_sub(last) > self.config.cooldown,
                None => true,
            };
            if state.streak >= required && cooled {
                state.last_fired = Some(seq);
                state.streak = 0;
                events.push(AnomalyEvent {
                    seq,
                    request_id,
                    class: trigger.class,
                    value: trigger.value,
                    z: trigger.z,
                    detail: trigger.detail,
                });
            }
        }
        events
    }
}

/// Sequential pure prep (see [`Prep`]).
fn prep_request(request: &Request) -> Prep {
    let replay_seed = match &request.payload {
        Payload::Generated { seed, n, index, .. } => instance_seed(*seed, *n, *index),
        Payload::Inline { tasks } => task_fingerprint(tasks),
    };
    Prep {
        n: request.payload.n(),
        profile: request.payload.profile_key(),
        replay_seed,
    }
}

/// Materializes a request's task set (runs inside the catching stage;
/// injected faults and generator panics surface as that slot's `Err`).
fn materialize(request: &Request) -> Vec<ControlTask> {
    match &request.payload {
        Payload::Generated {
            profile,
            seed,
            n,
            index,
        } => {
            #[cfg(feature = "faultinject")]
            csa_faultinject::maybe_fault(*n, *index);
            let cfg = BenchmarkConfig::with_model(*n, *profile);
            let mut rng = StdRng::seed_from_u64(instance_seed(*seed, *n, *index));
            generate_benchmark(&cfg, &mut rng)
        }
        Payload::Inline { tasks } => tasks.clone(),
    }
}

/// Partitions a batch's materialized task sets into equality groups in
/// first-occurrence order. Fingerprint collisions between *unequal*
/// sets become unbanked singleton groups.
fn group_batch(materialized: &[Result<Vec<ControlTask>, String>]) -> Vec<Group> {
    let mut groups: Vec<Group> = Vec::new();
    let mut by_fp: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, mat) in materialized.iter().enumerate() {
        let Ok(tasks) = mat else { continue };
        let fp = task_fingerprint(tasks);
        let mut seated = false;
        if let Some(candidates) = by_fp.get(&fp) {
            for &gi in candidates {
                if groups[gi].tasks == *tasks {
                    groups[gi].positions.push(i);
                    seated = true;
                    break;
                }
            }
        }
        if !seated {
            let collision = by_fp.get(&fp).is_some_and(|c| !c.is_empty());
            let gi = groups.len();
            groups.push(Group {
                fingerprint: if collision { None } else { Some(fp) },
                tasks: tasks.clone(),
                positions: vec![i],
            });
            by_fp.entry(fp).or_default().push(gi);
        }
    }
    groups
}

/// Classifies one task set on a fresh checker. The `n` slack checks of
/// the found assignment run on the classification's checker, so they
/// count as logical. Everything in the assessment is memo-invariant.
fn assess(tasks: &[ControlTask], search: &SearchConfig) -> Banked {
    let mut checker = StabilityChecker::new(tasks);
    let c = classify_instance_on(&mut checker, search);
    let verdict = if c.solvable() {
        Verdict::Admit
    } else if c.truncated() {
        Verdict::Unknown
    } else {
        Verdict::Reject
    };
    // Minimum slack and normalized slack over the assignment's tasks.
    let lower = |min: Option<f64>, v: f64| Some(min.filter(|&m| m < v).unwrap_or(v));
    let (mut slack, mut norm_slack) = (None, None);
    if let Some(pa) = &c.outcome.assignment {
        for (i, task) in tasks.iter().enumerate() {
            let s = checker.check(i, &pa.hp_indices(i)).slack;
            slack = lower(slack, s);
            norm_slack = lower(norm_slack, s / task.bound().b());
        }
    }
    Banked {
        assessment: Assessment {
            verdict,
            checks: c.outcome.stats.checks,
            truncated: c.outcome.stats.truncated,
            slack,
            norm_slack,
            anomalies: c.kinds(),
        },
        logical: checker.logical_checks(),
        computed: checker.computed_checks(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csa_experiments::PeriodModel;

    fn generated(id: u64, index: usize) -> Request {
        Request {
            id,
            payload: Payload::Generated {
                profile: PeriodModel::MarginTight,
                seed: 7,
                n: 4,
                index,
            },
        }
    }

    #[test]
    fn sets_at_the_task_ceiling_run_every_entry_point() {
        use csa_core::{
            audsley_opa, backtracking, is_valid_assignment, portfolio, unsafe_quadratic,
            PortfolioStage, MAX_TASKS,
        };
        let tasks: Vec<ControlTask> = (0..MAX_TASKS as u32)
            .map(|i| ControlTask::from_parts(i, 1, 1, 100_000, 1.0, 1.0).unwrap())
            .collect();
        let n = MAX_TASKS as u64;
        assert_eq!(StabilityChecker::new(&tasks).full_mask(), u64::MAX);
        for out in [
            backtracking(&tasks),
            unsafe_quadratic(&tasks),
            audsley_opa(&tasks),
        ] {
            assert!(is_valid_assignment(&tasks, &out.assignment.unwrap()));
            assert_eq!(out.stats.checks, n);
        }
        let out = portfolio(&tasks);
        assert_eq!(out.winner, Some(PortfolioStage::Opa));
        assert_eq!(out.stats.checks, n);
        assert!(!out.truncated());
        let search = SearchConfig::default();
        let c = csa_experiments::classify_instance(&tasks, &search);
        assert!(c.solvable() && c.kinds().is_empty());
        let banked = assess(&tasks, &search);
        assert_eq!(banked.assessment.verdict, Verdict::Admit);
        // The classification's checks plus the n slack checks.
        assert!(banked.logical > banked.assessment.checks + n);
        assert!(banked.computed > 0);
    }

    #[test]
    fn batch_size_does_not_change_responses() {
        let runs: Vec<Vec<Response>> = [1usize, 3, 16]
            .into_iter()
            .map(|batch_window| {
                let mut engine = MonitorEngine::new(MonitorConfig {
                    batch_window,
                    min_samples: 8,
                    ..MonitorConfig::default()
                });
                let mut out = Vec::new();
                for k in 0..16 {
                    out.extend(engine.submit(generated(k as u64 + 1, k)));
                }
                out.extend(engine.flush());
                out
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
        assert_eq!(runs[0].len(), 16);
    }

    #[test]
    fn warm_memo_changes_only_computed_checks() {
        let req = |id| Request {
            id,
            payload: Payload::Generated {
                profile: PeriodModel::GridSnapped,
                seed: 11,
                n: 4,
                index: 0,
            },
        };
        let mut engine = MonitorEngine::new(MonitorConfig {
            batch_window: 1,
            ..MonitorConfig::default()
        });
        let first = engine.submit(req(1));
        let cold_logical = engine.logical_checks();
        let cold_computed = engine.computed_checks();
        let second = engine.submit(req(2));
        assert_eq!(engine.memo_tables(), 1);
        // Identical task set: identical memo-invariant response fields.
        assert_eq!(first[0].verdict, second[0].verdict);
        assert_eq!(first[0].checks, second[0].checks);
        assert_eq!(first[0].slack, second[0].slack);
        // Logical work is memo-invariant (the warm pass "spent" the
        // same checks), but it recomputed strictly less.
        assert_eq!(engine.logical_checks(), 2 * cold_logical);
        assert!(engine.computed_checks() - cold_computed < cold_computed);
    }

    #[test]
    fn duplicate_task_sets_share_one_group() {
        let mut engine = MonitorEngine::new(MonitorConfig {
            batch_window: 4,
            ..MonitorConfig::default()
        });
        for id in 1..=3 {
            assert!(engine.submit(generated(id, 0)).is_empty());
        }
        let out = engine.submit(generated(4, 1));
        assert_eq!(out.len(), 4);
        // Two distinct task sets → two banked memo tables.
        assert_eq!(engine.memo_tables(), 2);
        assert_eq!(out[0].checks, out[1].checks);
        assert_eq!(out[0].verdict, out[2].verdict);
    }

    #[test]
    fn bank_serves_only_the_equal_set_and_a_hit_computes_nothing() {
        let (req_a, req_b) = (generated(1, 0), generated(2, 1));
        let (a, b) = (materialize(&req_a), materialize(&req_b));
        let search = MonitorConfig::default().search;
        let (banked_a, banked_b) = (assess(&a, &search), assess(&b, &search));
        assert_ne!(banked_a.assessment, banked_b.assessment);

        // Set A banked under B's fingerprint: a collision the public API
        // cannot produce. B misses and the resident entry stays.
        let f = task_fingerprint(&b);
        let mut bank = AssessmentBank::new(4);
        bank.put(f, a.clone(), banked_a.clone());
        assert!(bank.take(f, &b).is_none(), "A's assessment served to B");
        assert_eq!(bank.len(), 1);
        let hit = bank.take(f, &a).expect("the equal set hits");
        assert_eq!(hit.assessment, banked_a.assessment);
        assert_eq!(bank.len(), 0);

        // Through the engine: B is classified afresh and replaces A's
        // entry; a repeat of B then adds the banked logical count and
        // computes nothing.
        let mut engine = MonitorEngine::new(MonitorConfig {
            batch_window: 1,
            ..MonitorConfig::default()
        });
        engine.bank.put(f, a, banked_a);
        let repeat = Request {
            id: 3,
            payload: req_b.payload.clone(),
        };
        for (k, request) in [req_b, repeat].into_iter().enumerate() {
            let out = engine.submit(request);
            let expected = &banked_b.assessment;
            assert_eq!(out[0].verdict, expected.verdict);
            assert_eq!(out[0].checks, expected.checks);
            assert_eq!(out[0].slack, expected.slack);
            assert_eq!(out[0].norm_slack, expected.norm_slack);
            assert_eq!(out[0].anomalies, expected.anomalies);
            assert_eq!(engine.logical_checks(), (k as u64 + 1) * banked_b.logical);
            assert_eq!(engine.computed_checks(), banked_b.computed);
        }
        assert_eq!(engine.memo_tables(), 1);
    }
}
