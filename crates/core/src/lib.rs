//! The paper's contribution: stability-aware priority assignment for
//! control applications and the scheduling anomalies it must survive.
//!
//! Reproduces §II–§IV of *"Anomalies in Scheduling Control Applications
//! and Design Complexity"* (Aminifar & Bini, DATE 2017):
//!
//! * the stability condition `L + a J <= b` ([`StabilityBound`], Eq. 5)
//!   over exact latency/jitter from `csa-rta` (Eqs. 2–4);
//! * the control-task model ([`ControlTask`]) and exact task-set analysis
//!   ([`analyze`], [`is_valid_assignment`]);
//! * priority assignment: the paper's backtracking **Algorithm 1**
//!   ([`backtracking`]), the **Unsafe Quadratic** baseline
//!   ([`unsafe_quadratic`]), strict Audsley OPA ([`audsley_opa`]), an
//!   exhaustive ground truth ([`exhaustive`]), and the staged anytime
//!   [`portfolio`] search that bounds design-time latency under a check
//!   budget (DESIGN.md §8);
//! * anomaly detectors with certified witnesses ([`anomaly`] module);
//! * monotonicity-exploiting vs. safe sensitivity analysis
//!   ([`max_stable_wcet_binary`], [`max_stable_wcet_scan`]).
//!
//! The anomaly algebra behind all of this is DESIGN.md §5; the
//! zero-allocation memoized execution engine is DESIGN.md §7.
//!
//! # Example
//!
//! ```
//! use csa_core::{backtracking, is_valid_assignment, ControlTask};
//!
//! # fn main() -> Result<(), csa_rta::InvalidTask> {
//! // Three control tasks (times in ns-ticks, bounds in seconds).
//! let tasks = vec![
//!     ControlTask::from_parts(0, 500, 1_000, 10_000, 1.2, 4e-6)?,
//!     ControlTask::from_parts(1, 800, 2_000, 20_000, 1.5, 9e-6)?,
//!     ControlTask::from_parts(2, 900, 3_000, 40_000, 2.0, 2e-5)?,
//! ];
//! let outcome = backtracking(&tasks);
//! let pa = outcome.assignment.expect("feasible");
//! assert!(is_valid_assignment(&tasks, &pa));
//! println!("priorities: {pa}, checks: {}", outcome.stats.checks);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod analysis;
pub mod anomaly;
mod assignment;
mod fxhash;
mod portfolio;
mod sensitivity;
mod stability;

pub use analysis::{
    analyze, check_task, is_valid_assignment, PriorityAssignment, StabilityChecker, TaskVerdict,
};
pub use anomaly::{
    find_interference_removal_anomaly, find_interference_removal_anomaly_on,
    find_period_increase_anomaly, find_priority_raise_anomaly, find_priority_raise_anomaly_on,
    find_wcet_decrease_anomaly, verify_witness, AnomalyKind, AnomalyWitness,
};
pub use assignment::reference;
pub use assignment::{
    audsley_opa, audsley_opa_with_budget, backtracking, backtracking_on_checker,
    backtracking_with_budget, backtracking_with_order, count_valid_assignments, exhaustive,
    opa_on_checker, unsafe_quadratic, unsafe_quadratic_on, AssignmentOutcome, AssignmentStats,
    CandidateOrder, EXHAUSTIVE_MAX_TASKS,
};
pub use csa_rta::MAX_TASKS;
pub use portfolio::{
    portfolio, portfolio_on_checker, portfolio_with_budget, PortfolioOutcome, PortfolioStage,
    StageReport, SLACK_PROBE_FACTOR,
};
pub use sensitivity::{
    max_stable_wcet_binary, max_stable_wcet_scan, verify_sensitivity, SensitivityResult,
};
pub use stability::{ControlTask, StabilityBound};
