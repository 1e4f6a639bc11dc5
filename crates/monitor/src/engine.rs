//! The monitoring engine: each request answered as it arrives, over a
//! bank of finished assessments, with the baseline lifecycle and the
//! anomaly event machine.
//!
//! # Determinism contract
//!
//! Responses are a pure function of the request sequence and the
//! fingerprinted configuration; the assessment bank changes latency
//! only. [`MonitorEngine::submit`] takes requests in arrival order (ids
//! are echoed back, never sorted): inside one panic containment it
//! takes the request's assessment from the bank, or materializes and
//! classifies it and banks the result; then it folds the request into
//! the baseline, the event machine and the response. A response exposes only memo-invariant
//! quantities (verdicts, logical check counts, truncation flags, slacks,
//! census classes), and an assessment is a pure function of the task set
//! and the engine's [`SearchConfig`], so a bank hit answers exactly what
//! a fresh classification would — at any bank size (covered by the
//! `service_vs_batch` differential suite).
//!
//! # Event machine
//!
//! Once the baseline locks, each folded request evaluates a fixed
//! trigger order (quarantine → margin z-scores → census classes →
//! truncation drift). A class fires only after `persistence`
//! consecutive triggering requests (1 for the discrete classes) and is
//! then silenced for `cooldown` further requests. Truncation drift
//! compares the truncation rate of the last 32 assessed requests
//! (`DRIFT_WINDOW`) with the locked rate, and triggers at a rise of at
//! least 0.25 (`DRIFT_THRESHOLD`).

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use csa_core::{ControlTask, StabilityChecker};
use csa_experiments::artifact::{hex, Fnv64};
use csa_experiments::{
    catch_panic, classify_instance_on, generate_benchmark, instance_seed, BenchmarkConfig,
    PeriodModel, SearchConfig, WitnessKind,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::baseline::{Baseline, Lifecycle};
use crate::request::{AnomalyEvent, EventClass, Metric, Payload, Request, Response, Verdict};

/// Length, in assessed requests, of the truncation-drift detector's
/// trailing window.
pub(crate) const DRIFT_WINDOW: usize = 32;

/// Truncation drift triggers at `trailing_rate - baseline_rate >=
/// DRIFT_THRESHOLD`.
pub(crate) const DRIFT_THRESHOLD: f64 = 0.25;

/// Configuration of a [`MonitorEngine`].
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorConfig {
    /// The assignment search deciding each admission.
    pub search: SearchConfig,
    /// Nominal samples required before the baseline can lock.
    pub min_samples: u64,
    /// Fire a margin event at `z <= -z_threshold`.
    pub z_threshold: f64,
    /// Consecutive triggering requests required for continuous classes.
    pub persistence: u64,
    /// Requests a fired class stays silenced for.
    pub cooldown: u64,
    /// Maximum task-set assessments kept banked. Past it the bank evicts
    /// by GreedyDual (DESIGN.md §14): the entry cheapest to reclassify
    /// goes, in checks its classification computed, counted above a
    /// floor that every eviction raises so that an unused expensive entry
    /// still ages out; ties go least recently used first.
    pub memo_tables: usize,
}

impl Default for MonitorConfig {
    fn default() -> MonitorConfig {
        MonitorConfig {
            search: SearchConfig::default(),
            min_samples: 64,
            z_threshold: 3.0,
            persistence: 2,
            cooldown: 16,
            memo_tables: 512,
        }
    }
}

/// [`Fnv64`] over every field of the task list (labels, execution times,
/// periods, and the raw `(a, b)` float bits): the assessment bank's key
/// for an inline set. It is verified by full equality on every lookup,
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

impl Banked {
    /// What evicting this entry would cost: the checks a reclassification
    /// recomputes (deterministic, at least 1).
    fn cost(&self) -> u64 {
        self.computed.max(1)
    }
}

/// What the bank files an assessment under. A generated request's task
/// set is a pure function of its coordinates (given the process-wide
/// margin tables), so the coordinates are the key and a hit neither
/// regenerates nor compares the set. An inline set is keyed by its
/// [`task_fingerprint`] and verified by full equality on every lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BankKey {
    Generated {
        profile: PeriodModel,
        seed: u64,
        n: usize,
        index: usize,
    },
    Inline(u64),
}

impl BankKey {
    fn of(payload: &Payload) -> BankKey {
        match *payload {
            Payload::Generated {
                profile,
                seed,
                n,
                index,
            } => BankKey::Generated {
                profile,
                seed,
                n,
                index,
            },
            Payload::Inline { ref tasks } => BankKey::Inline(task_fingerprint(tasks)),
        }
    }

    /// The key's fields as integers, in the bank's order.
    fn fields(&self) -> (u8, u64, usize, usize) {
        match *self {
            BankKey::Generated {
                profile,
                seed,
                n,
                index,
            } => (profile as u8, seed, n, index),
            BankKey::Inline(fingerprint) => (u8::MAX, fingerprint, 0, 0),
        }
    }
}

// Written out, not derived: a derived `PartialOrd` calls the fields'
// `partial_cmp`, which the F001 rule bans (DESIGN.md §13).
impl Ord for BankKey {
    fn cmp(&self, o: &Self) -> Ordering {
        self.fields().cmp(&o.fields())
    }
}

impl PartialOrd for BankKey {
    fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
        Some(self.cmp(o))
    }
}

/// One banked assessment and its place in the eviction order.
#[derive(Debug)]
struct Entry {
    /// The bank's floor when the entry was last touched, plus its cost.
    priority: u64,
    /// When the entry was last touched (breaks priority ties).
    tick: u64,
    /// An inline set's tasks, compared on every lookup; `None` under a
    /// generated key.
    tasks: Option<Vec<ControlTask>>,
    banked: Banked,
}

/// Finished classifications under GreedyDual eviction (Young 1994): an
/// entry's priority is the floor when it was last touched plus its
/// [`Banked::cost`]. Past the cap the lowest priority goes (ties: least
/// recently used) and the floor rises to it, so an expensive set outlives
/// many cheap ones while an entry nobody touches still ages out. At
/// equal costs the order is exactly LRU.
#[derive(Debug)]
pub(crate) struct AssessmentBank {
    entries: BTreeMap<BankKey, Entry>,
    /// `(priority, tick)` of every entry, lowest (the next victim) first.
    order: BTreeMap<(u64, u64), BankKey>,
    floor: u64,
    tick: u64,
    cap: usize,
}

impl AssessmentBank {
    fn new(cap: usize) -> AssessmentBank {
        AssessmentBank {
            entries: BTreeMap::new(),
            order: BTreeMap::new(),
            floor: 0,
            tick: 0,
            cap: cap.max(1),
        }
    }

    /// The assessment banked under `key`, its entry refreshed to the
    /// floor plus its cost. An inline key serves only an *equal* stored
    /// set: on a fingerprint collision another set's assessment would be
    /// a wrong answer, not a slow one, so it is a miss.
    fn get(&mut self, key: &BankKey, inline: Option<&[ControlTask]>) -> Option<&Banked> {
        let entry = self.entries.get_mut(key)?;
        if entry.tasks.as_deref() != inline {
            return None;
        }
        self.order.remove(&(entry.priority, entry.tick));
        self.tick += 1;
        entry.priority = self.floor.saturating_add(entry.banked.cost());
        entry.tick = self.tick;
        self.order.insert((entry.priority, entry.tick), *key);
        Some(&entry.banked)
    }

    /// Banks a fresh classification, replacing a resident entry under the
    /// same key (an inline fingerprint collision). A full bank first
    /// evicts its lowest priority and raises the floor to it.
    fn put(&mut self, key: BankKey, tasks: Option<Vec<ControlTask>>, banked: Banked) {
        if let Some(old) = self.entries.remove(&key) {
            self.order.remove(&(old.priority, old.tick));
        }
        while self.entries.len() >= self.cap {
            let Some(((priority, _), victim)) = self.order.pop_first() else {
                break;
            };
            self.entries.remove(&victim);
            self.floor = priority;
        }
        self.tick += 1;
        let priority = self.floor.saturating_add(banked.cost());
        self.order.insert((priority, self.tick), key);
        self.entries.insert(
            key,
            Entry {
                priority,
                tick: self.tick,
                tasks,
                banked,
            },
        );
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
    pub(crate) processed: u64,
    pub(crate) events_emitted: u64,
    pub(crate) quarantined: u64,
    logical_checks: u64,
    computed_checks: u64,
}

impl MonitorEngine {
    /// Creates an idle engine with an empty building-phase baseline.
    pub fn new(config: MonitorConfig) -> MonitorEngine {
        let baseline = Baseline::new(config.min_samples);
        let bank = AssessmentBank::new(config.memo_tables);
        MonitorEngine {
            config,
            baseline,
            events_state: BTreeMap::new(),
            window: VecDeque::new(),
            bank,
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

    /// Checks whose fixed points actually ran: a classified request
    /// computes each distinct check once, a bank hit computes none —
    /// telemetry only, never part of a response.
    pub fn computed_checks(&self) -> u64 {
        self.computed_checks
    }

    /// Assesses one request and returns its response, the vector's only
    /// element. The request is materialized and answered from the bank or
    /// classified inside one panic containment (a panic quarantines this
    /// request alone); then it is folded into the baseline and the event
    /// machine, in arrival order.
    pub fn submit(&mut self, request: Request) -> Vec<Response> {
        let search = self.config.search;
        let outcome = catch_panic(|| {
            let key = BankKey::of(&request.payload);
            let inline = match &request.payload {
                Payload::Inline { tasks } => Some(tasks.as_slice()),
                Payload::Generated { .. } => None,
            };
            let (logical, assessment) = match self.bank.get(&key, inline) {
                Some(banked) => (banked.logical, banked.assessment.clone()),
                None => {
                    let tasks = materialize(&request);
                    let banked = assess(&tasks, &search);
                    self.computed_checks += banked.computed;
                    let answer = (banked.logical, banked.assessment.clone());
                    self.bank.put(key, inline.map(|_| tasks), banked);
                    answer
                }
            };
            // Every request spends the logical checks, hit or miss. One
            // search may make u64::MAX checks, so saturate.
            self.logical_checks = self.logical_checks.saturating_add(logical);
            assessment
        });
        vec![self.fold_request(&request, outcome)]
    }

    /// Returns no responses: [`MonitorEngine::submit`] answers every
    /// request as it arrives, so nothing is ever left to flush. Kept so
    /// that a caller written for end-of-stream draining still compiles.
    pub fn flush(&mut self) -> Vec<Response> {
        Vec::new()
    }

    fn fold_request(&mut self, request: &Request, outcome: Result<Assessment, String>) -> Response {
        self.processed += 1;
        let seq = self.processed;
        let (n, profile) = (request.payload.n(), request.payload.profile_key());
        // The lifecycle *entering* this request decides whether events
        // are live; the locking request itself emits none.
        let was_locked = self.baseline.lifecycle() == Lifecycle::Locked;

        let (assessment, quarantine) = match outcome {
            Ok(a) => (a, None),
            Err(msg) => {
                self.quarantined += 1;
                let detail = format!("{msg}; replay seed {}", hex(replay_seed(&request.payload)));
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
            while self.window.len() > DRIFT_WINDOW {
                self.window.pop_front();
            }
            if !was_locked {
                self.baseline.observe_truncation(assessment.truncated);
                if assessment.verdict == Verdict::Admit
                    && !assessment.truncated
                    && assessment.anomalies.is_empty()
                {
                    if let (Some(s), Some(ns)) = (assessment.slack, assessment.norm_slack) {
                        self.baseline.observe_nominal(n, &profile, s, ns);
                    }
                }
                self.baseline.try_lock();
            }
        }

        let events = if was_locked {
            let quarantine = quarantine.as_deref();
            self.evaluate_events(seq, request.id, n, &profile, &assessment, quarantine)
        } else {
            Vec::new()
        };
        self.events_emitted += events.len() as u64;

        Response {
            id: request.id,
            seq,
            verdict: assessment.verdict,
            n,
            profile,
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
        n: usize,
        profile: &str,
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
                if let Some(cell) = self.baseline.cell(n, profile).copied() {
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
                                    n, profile, stats.mean, stats.std, stats.count
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
                    detail: format!("census class {} at n={n}", kind.name()),
                });
            }
            if self.window.len() >= DRIFT_WINDOW {
                if let Some(base) = self.baseline.truncation_rate() {
                    let hits = self.window.iter().filter(|&&t| t).count();
                    let rate = hits as f64 / self.window.len() as f64;
                    if rate - base >= DRIFT_THRESHOLD {
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

/// The seed a quarantine names for replaying `payload` offline: its
/// instance seed, or an inline set's task fingerprint.
fn replay_seed(payload: &Payload) -> u64 {
    match payload {
        Payload::Generated { seed, n, index, .. } => instance_seed(*seed, *n, *index),
        Payload::Inline { tasks } => task_fingerprint(tasks),
    }
}

/// Materializes a request's task set (runs inside `submit`'s panic
/// containment, so injected faults and generator panics quarantine the
/// request).
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
    fn every_submit_returns_exactly_its_own_response() {
        let mut engine = MonitorEngine::new(MonitorConfig {
            min_samples: 8,
            ..MonitorConfig::default()
        });
        // Descending ids: they are echoed back, never sorted.
        for k in 0..16 {
            let id = 100 - k as u64;
            let out = engine.submit(generated(id, k));
            assert_eq!(out.len(), 1);
            assert_eq!((out[0].id, out[0].seq), (id, k as u64 + 1));
        }
        assert!(engine.flush().is_empty());
        assert_eq!(engine.processed(), 16);
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
        let mut engine = MonitorEngine::new(MonitorConfig::default());
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
    fn an_equal_set_arriving_next_is_a_bank_hit() {
        let mut engine = MonitorEngine::new(MonitorConfig::default());
        let first = engine.submit(generated(1, 0));
        let cold_computed = engine.computed_checks();
        let second = engine.submit(generated(2, 0));
        assert_eq!(engine.memo_tables(), 1);
        assert_eq!(first[0].verdict, second[0].verdict);
        assert_eq!(first[0].checks, second[0].checks);
        assert_eq!(engine.computed_checks(), cold_computed);
    }

    fn inline(id: u64, tasks: &[ControlTask]) -> Request {
        Request {
            id,
            payload: Payload::Inline {
                tasks: tasks.to_vec(),
            },
        }
    }

    /// A synthetic classification whose reclassification costs `computed`
    /// checks.
    fn costing(computed: u64) -> Banked {
        Banked {
            assessment: Assessment {
                verdict: Verdict::Admit,
                checks: computed,
                truncated: false,
                slack: None,
                norm_slack: None,
                anomalies: Vec::new(),
            },
            logical: computed,
            computed,
        }
    }

    fn key(index: usize) -> BankKey {
        BankKey::of(&generated(0, index).payload)
    }

    #[test]
    fn an_expensive_assessment_outlives_cheaper_distinct_sets() {
        // LRU would evict set 0 at the second cheap set. GreedyDual keeps
        // it until the floor, raised by each eviction, has climbed its
        // whole cost: the 101st cheap set evicts it (its tie with set 100
        // at priority 100 goes to the less recently used).
        let mut bank = AssessmentBank::new(2);
        bank.put(key(0), None, costing(100));
        for i in 1..=100 {
            assert!(bank.get(&key(i), None).is_none());
            bank.put(key(i), None, costing(1));
            assert!(bank.entries.contains_key(&key(0)), "evicted at {i}");
            assert_eq!(bank.len(), 2);
        }
        bank.put(key(101), None, costing(1));
        let left: Vec<BankKey> = bank.entries.keys().copied().collect();
        assert_eq!(left, [key(100), key(101)]);
        assert_eq!(bank.floor, 100);
    }

    #[test]
    fn at_equal_costs_the_least_recently_used_goes_first() {
        let mut bank = AssessmentBank::new(2);
        bank.put(key(0), None, costing(5));
        bank.put(key(1), None, costing(5));
        // The hit refreshes set 0, so set 1 is now the least recently
        // used and the next distinct set evicts it.
        assert_eq!(bank.get(&key(0), None).map(|b| b.computed), Some(5));
        bank.put(key(2), None, costing(5));
        let left: Vec<BankKey> = bank.entries.keys().copied().collect();
        assert_eq!(left, [key(0), key(2)]);
        bank.put(key(3), None, costing(5));
        let left: Vec<BankKey> = bank.entries.keys().copied().collect();
        assert_eq!(left, [key(2), key(3)]);
    }

    #[test]
    fn a_generated_repeat_is_a_hit_that_computes_nothing() {
        let mut engine = MonitorEngine::new(MonitorConfig::default());
        let first = engine.submit(generated(1, 0));
        engine.submit(generated(2, 1));
        let (logical, computed) = (engine.logical_checks(), engine.computed_checks());
        let repeat = engine.submit(generated(3, 0));
        assert_eq!(engine.computed_checks(), computed);
        assert!(engine.logical_checks() > logical);
        assert_eq!(engine.memo_tables(), 2);
        assert_eq!(
            (first[0].verdict, first[0].checks, first[0].slack),
            (repeat[0].verdict, repeat[0].checks, repeat[0].slack)
        );
        // A generated entry keeps no task set: its coordinates are the key.
        assert!(engine.bank.entries.values().all(|e| e.tasks.is_none()));
    }

    #[test]
    fn an_inline_copy_of_a_generated_set_is_its_own_entry() {
        let request = generated(1, 0);
        let tasks = materialize(&request);
        let mut engine = MonitorEngine::new(MonitorConfig::default());
        let generated_answer = engine.submit(request);
        let cold = engine.computed_checks();
        let inline_answer = engine.submit(inline(2, &tasks));
        assert_eq!(engine.memo_tables(), 2);
        assert_eq!(engine.computed_checks(), 2 * cold);
        let (g, i) = (&generated_answer[0], &inline_answer[0]);
        assert_eq!(
            (g.verdict, g.n, g.checks, g.truncated),
            (i.verdict, i.n, i.checks, i.truncated)
        );
        assert_eq!((g.slack, g.norm_slack), (i.slack, i.norm_slack));
        assert_eq!(g.anomalies, i.anomalies);
        // The inline repeat is a hit on its own entry.
        engine.submit(inline(3, &tasks));
        assert_eq!(engine.computed_checks(), 2 * cold);
        assert_eq!(engine.memo_tables(), 2);
    }

    #[test]
    fn bank_serves_only_the_equal_set_and_a_hit_computes_nothing() {
        let (a, b) = (materialize(&generated(1, 0)), materialize(&generated(2, 1)));
        let search = MonitorConfig::default().search;
        let (banked_a, banked_b) = (assess(&a, &search), assess(&b, &search));
        assert_ne!(banked_a.assessment, banked_b.assessment);

        // Inline set A banked under B's fingerprint: a collision the
        // public API cannot produce. B misses and the resident entry
        // stays; A still hits.
        let forged = BankKey::Inline(task_fingerprint(&b));
        let mut bank = AssessmentBank::new(4);
        bank.put(forged, Some(a.clone()), banked_a.clone());
        assert!(
            bank.get(&forged, Some(&b)).is_none(),
            "A's assessment served to B"
        );
        let hit = bank.get(&forged, Some(&a)).expect("the equal set hits");
        assert_eq!(hit.assessment, banked_a.assessment);
        assert_eq!(bank.len(), 1);

        // Through the engine: B is classified afresh and replaces A's
        // entry; a repeat of B then adds the banked logical count and
        // computes nothing.
        let mut engine = MonitorEngine::new(MonitorConfig::default());
        engine.bank.put(forged, Some(a), banked_a);
        for id in 1..=2 {
            let out = engine.submit(inline(id, &b));
            let expected = &banked_b.assessment;
            assert_eq!(out[0].verdict, expected.verdict);
            assert_eq!(out[0].checks, expected.checks);
            assert_eq!(out[0].slack, expected.slack);
            assert_eq!(out[0].norm_slack, expected.norm_slack);
            assert_eq!(out[0].anomalies, expected.anomalies);
            assert_eq!(engine.logical_checks(), id * banked_b.logical);
            assert_eq!(engine.computed_checks(), banked_b.computed);
        }
        assert_eq!(engine.memo_tables(), 1);
    }
}
