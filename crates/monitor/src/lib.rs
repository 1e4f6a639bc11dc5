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
//! * [`MonitorEngine`] — deterministic batch windows over a bank of
//!   finished assessments: each group of equal task sets is classified
//!   once and later equal sets reuse the result, so a window of `K`
//!   requests yields bit-identical responses at any batch size, thread
//!   count, and bank state.
//! * [`Baseline`] — learned nominal margin statistics per
//!   `(n, profile)` cell with an explicit Building → Locked lifecycle;
//!   locked statistics are a pure function of the observed sample
//!   multiset (arrival-order invariant by sorted-order accumulation).
//! * [`AnomalyEvent`] / [`EventClass`] — z-score exceedance on margin
//!   slack, census anomaly-class hits, portfolio truncation-rate
//!   drift, and contained-panic quarantines, gated by persistence and
//!   cooldown.
//! * [`snapshot`] — crash-safe `csamon1` persistence (fingerprint
//!   header + atomic rename), excluding the assessment bank so a resume
//!   with an empty bank continues the stream byte-identically.
//! * [`generate_stream`] — seeded request streams addressed exactly
//!   like the census sweep's instances, for differential pinning.
//!
//! # Example
//!
//! ```
//! use csa_monitor::{generate_stream, MonitorConfig, MonitorEngine, StreamConfig};
//!
//! let mut engine = MonitorEngine::new(MonitorConfig {
//!     batch_window: 4,
//!     min_samples: 8,
//!     ..MonitorConfig::default()
//! });
//! let mut responses = Vec::new();
//! for request in generate_stream(&StreamConfig { count: 16, ..StreamConfig::default() }) {
//!     responses.extend(engine.submit(request));
//! }
//! responses.extend(engine.flush());
//! assert_eq!(responses.len(), 16);
//! // Identical stream, any batch size: identical responses.
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
