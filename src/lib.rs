//! Reproduction of *"Anomalies in Scheduling Control Applications and
//! Design Complexity"* (Aminifar & Bini, DATE 2017).
//!
//! This façade crate re-exports the whole workspace so downstream users
//! can depend on one crate:
//!
//! * [`linalg`] — hand-written dense linear algebra (eigenvalues, matrix
//!   exponential, Lyapunov/Riccati solvers);
//! * [`control`] — LTI systems, delayed ZOH sampling, LQG design,
//!   sampled quadratic cost, jitter-margin stability curves;
//! * [`rta`] — exact fixed-priority response-time analysis (WCRT/BCRT)
//!   and UUniFast task generation;
//! * [`sim`] — an event-driven fixed-priority preemptive scheduler
//!   simulator;
//! * [`core`] — the paper's contribution: the `L + aJ <= b` stability
//!   condition, anomaly detection, and priority-assignment algorithms;
//! * [`experiments`] — harnesses regenerating the paper's Table I and
//!   Figures 2, 4, 5;
//! * [`monitor`] — online anomaly-monitoring service: streaming
//!   admission control with learned baselines and typed anomaly
//!   events.
//!
//! See `README.md` for the quickstart, `DESIGN.md` for the system
//! inventory, and `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! # Example
//!
//! ```
//! use sched_anomalies::core::{backtracking, is_valid_assignment, ControlTask};
//!
//! # fn main() -> Result<(), sched_anomalies::rta::InvalidTask> {
//! let tasks = vec![
//!     ControlTask::from_parts(0, 500, 1_000, 10_000, 1.2, 4e-6)?,
//!     ControlTask::from_parts(1, 800, 2_000, 20_000, 1.5, 9e-6)?,
//! ];
//! let pa = backtracking(&tasks).assignment.expect("feasible");
//! assert!(is_valid_assignment(&tasks, &pa));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub use csa_control as control;
pub use csa_core as core;
pub use csa_experiments as experiments;
pub use csa_linalg as linalg;
pub use csa_monitor as monitor;
pub use csa_rta as rta;
pub use csa_sim as sim;
