//! Online anomaly-monitoring service for control-task admission
//! (DESIGN.md §14).
//!
//! The batch sweeps in `csa-experiments` answer "how rare are the
//! paper's scheduling anomalies across a benchmark distribution?".
//! This crate answers the operational follow-up: *watch a stream of
//! task-set/plant configurations as they arrive and raise typed events
//! when one leaves the nominal envelope* — library-first (no network
//! dependency), with a stdin/stdout JSONL binary on top.
//!
//! * [`MonitorEngine`] — answers each request as it arrives, over a
//!   bank of finished assessments: a task set is classified once and
//!   later equal sets reuse the result, so the responses are a pure
//!   function of the request sequence and the configuration, at any
//!   bank size.
//! * [`Baseline`] — learned nominal margin statistics per
//!   `(n, profile)` cell with an explicit Building → Locked lifecycle;
//!   locked statistics are a pure function of the observed sample
//!   multiset (arrival-order invariant by sorted-order accumulation).
//! * [`AnomalyEvent`] / [`EventClass`] — z-score exceedance on margin
//!   slack, census anomaly-class hits, portfolio truncation-rate
//!   drift, and contained-panic quarantines, gated by persistence and
//!   cooldown.
//! * [`snapshot`] — crash-safe `csamon2` persistence (fingerprint
//!   header, record count and atomic rename), excluding the assessment
//!   bank so a resume with an empty bank continues the stream
//!   byte-identically.
//! * [`generate_stream`] — seeded request streams addressed exactly
//!   like the census sweep's instances, for differential pinning.
//!
//! # Example
//!
//! ```
//! use csa_monitor::{generate_stream, MonitorConfig, MonitorEngine, StreamConfig};
//!
//! let mut engine = MonitorEngine::new(MonitorConfig {
//!     min_samples: 8,
//!     ..MonitorConfig::default()
//! });
//! let mut responses = Vec::new();
//! for request in generate_stream(&StreamConfig { count: 16, ..StreamConfig::default() }) {
//!     let id = request.id;
//!     // Each request is answered on arrival with its own response.
//!     let answered = engine.submit(request);
//!     assert_eq!(answered.len(), 1);
//!     assert_eq!(answered[0].id, id);
//!     responses.extend(answered);
//! }
//! assert_eq!(responses.len(), 16);
//! // Identical stream, any bank size: identical responses.
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod baseline;
mod engine;
pub mod jsonl;
mod request;
pub mod snapshot;
mod stream;

pub use baseline::{Baseline, CellStats, Lifecycle, LockedCell};
pub use engine::{MonitorConfig, MonitorEngine};
pub use request::{
    AnomalyEvent, EventClass, Metric, Payload, Request, Response, Verdict, INLINE_PROFILE,
};
pub use stream::{generate_stream, StreamConfig};
