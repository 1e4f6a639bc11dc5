//! The service's typed request/response surface.
//!
//! A [`Request`] names one task-set/plant configuration — either by its
//! generator coordinates (the PR 2 `instance_seed` scheme, replayable
//! bit-for-bit) or as an inline task list in the witness serialization
//! syntax — and a [`Response`] carries the admission verdict, the
//! margin metrics, the anomaly census classification, and any
//! [`AnomalyEvent`]s the locked baseline raised.

use crate::baseline::Lifecycle;
use csa_core::ControlTask;
use csa_experiments::{PeriodModel, WitnessKind};

/// Profile key used for inline task payloads in baseline cells and
/// responses (generated payloads use their [`PeriodModel`] name).
pub const INLINE_PROFILE: &str = "inline";

/// One admission-control request: a caller-chosen id plus the
/// configuration payload. Requests are answered in the order they
/// arrive; the id only labels the response and its events.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Caller-assigned id, echoed in the response.
    pub id: u64,
    /// The task-set configuration to assess.
    pub payload: Payload,
}

/// How a request names its task set.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Generator coordinates: the task set is
    /// `generate_benchmark(profile, n)` seeded by
    /// `instance_seed(seed, n, index)` — replayable bit-for-bit.
    Generated {
        /// Benchmark generator profile.
        profile: PeriodModel,
        /// Experiment base seed.
        seed: u64,
        /// Task count.
        n: usize,
        /// Instance index within the `(seed, n)` stream.
        index: usize,
    },
    /// An explicit task list (the witness task-list syntax carries it
    /// losslessly over JSONL).
    Inline {
        /// The complete task set.
        tasks: Vec<ControlTask>,
    },
}

impl Payload {
    /// Task count of the payload.
    pub fn n(&self) -> usize {
        match self {
            Payload::Generated { n, .. } => *n,
            Payload::Inline { tasks } => tasks.len(),
        }
    }

    /// Profile key used for baseline cells and responses.
    pub fn profile_key(&self) -> String {
        match self {
            Payload::Generated { profile, .. } => profile.name().to_string(),
            Payload::Inline { .. } => INLINE_PROFILE.to_string(),
        }
    }
}

/// The admission verdict of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The configured search found a valid assignment.
    Admit,
    /// The search decisively proved no valid assignment exists.
    Reject,
    /// The search exhausted its check budget without deciding — never
    /// to be read as a rejection (the portfolio truncation contract).
    Unknown,
    /// Evaluation panicked; the instance is excluded from the baseline
    /// and reported with its replayable seed.
    Quarantined,
}

impl Verdict {
    /// Every verdict, in documentation order.
    pub const ALL: [Verdict; 4] = [
        Verdict::Admit,
        Verdict::Reject,
        Verdict::Unknown,
        Verdict::Quarantined,
    ];

    /// Stable lowercase name used in response lines.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Admit => "admit",
            Verdict::Reject => "reject",
            Verdict::Unknown => "unknown",
            Verdict::Quarantined => "quarantined",
        }
    }

    /// Parses a [`Verdict::name`] back into the verdict.
    pub fn parse(s: &str) -> Option<Verdict> {
        Verdict::ALL.into_iter().find(|v| v.name() == s)
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The margin metrics the baseline learns per `(n, profile)` cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Minimum stability slack `b - L - aJ` over the set's tasks, in
    /// seconds, under the found assignment.
    Slack,
    /// Minimum *normalized* slack `(b - L - aJ) / b` — dimensionless
    /// distance to the stability cliff, comparable across plants.
    NormSlack,
}

impl Metric {
    /// Every metric, in storage order.
    pub const ALL: [Metric; 2] = [Metric::Slack, Metric::NormSlack];

    /// Stable kebab-case name used in event classes.
    pub fn name(self) -> &'static str {
        match self {
            Metric::Slack => "slack",
            Metric::NormSlack => "norm-slack",
        }
    }

    /// Storage index of the metric in per-cell sample arrays.
    pub fn index(self) -> usize {
        match self {
            Metric::Slack => 0,
            Metric::NormSlack => 1,
        }
    }
}

/// The typed class of an anomaly event. Classes are the cooldown and
/// persistence key: two events of the same class are guaranteed more
/// than `cooldown` requests apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventClass {
    /// A margin metric fell more than `z_threshold` standard deviations
    /// below its locked nominal mean.
    MarginZ(Metric),
    /// The census classification flagged an anomaly class on an
    /// admitted configuration.
    CensusAnomaly(WitnessKind),
    /// The trailing truncation rate drifted above the locked baseline
    /// rate by more than the configured threshold.
    TruncationDrift,
    /// An evaluation panic was contained and quarantined.
    Quarantine,
}

impl EventClass {
    /// Stable kebab-case class name (the cooldown/persistence key).
    pub fn name(self) -> String {
        match self {
            EventClass::MarginZ(m) => format!("margin-z-{}", m.name()),
            EventClass::CensusAnomaly(k) => format!("census-{}", k.name()),
            EventClass::TruncationDrift => "truncation-drift".to_string(),
            EventClass::Quarantine => "quarantine".to_string(),
        }
    }
}

/// One emitted anomaly event.
#[derive(Debug, Clone, PartialEq)]
pub struct AnomalyEvent {
    /// Global sequence number of the request that fired the event.
    pub seq: u64,
    /// Id of that request.
    pub request_id: u64,
    /// The event class.
    pub class: EventClass,
    /// The triggering value (metric value, trailing rate, or 1 for
    /// discrete classes).
    pub value: f64,
    /// The z-score for [`EventClass::MarginZ`] events.
    pub z: Option<f64>,
    /// Human-readable context (replay seed for quarantines, baseline
    /// statistics for z-exceedances, ...).
    pub detail: String,
}

/// The service's answer to one request.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Echo of the request id.
    pub id: u64,
    /// Global 1-based sequence number in processing order.
    pub seq: u64,
    /// The admission verdict.
    pub verdict: Verdict,
    /// Task count of the assessed set.
    pub n: usize,
    /// Profile key (generator profile name, or `inline`).
    pub profile: String,
    /// Logical exact stability checks the configured search spent —
    /// memo-invariant, so identical to the batch sweep's count.
    pub checks: u64,
    /// Whether the search was truncated by its budget.
    pub truncated: bool,
    /// Minimum stability slack (seconds) under the found assignment;
    /// present only for admitted configurations.
    pub slack: Option<f64>,
    /// Minimum normalized slack; present only for admitted
    /// configurations.
    pub norm_slack: Option<f64>,
    /// Census anomaly classes triggered, in the historical collection
    /// order.
    pub anomalies: Vec<WitnessKind>,
    /// Quarantine detail (panic message plus the replayable `{:016x}`
    /// seed) when the verdict is [`Verdict::Quarantined`].
    pub quarantine: Option<String>,
    /// Baseline lifecycle *after* this request was folded in.
    pub lifecycle: Lifecycle,
    /// Events this request fired (always empty while Building).
    pub events: Vec<AnomalyEvent>,
}
