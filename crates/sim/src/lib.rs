//! Event-driven fixed-priority preemptive scheduler simulation.
//!
//! The paper's analysis (Eqs. 2–4) predicts worst- and best-case response
//! times; this crate provides the matching *executable* semantics: an
//! exact, integer-time, preemptive fixed-priority uniprocessor simulator
//! (its place in the layering: DESIGN.md §2).
//! It serves two roles in the reproduction:
//!
//! 1. **Cross-validation** — observed response times of any simulation must
//!    lie inside the analytical `[R_b, R_w]` interval, and a synchronous
//!    release with worst-case execution times must reproduce `R_w` exactly.
//! 2. **Demonstration** — the examples animate the anomalies on concrete
//!    schedules (observed latency/jitter per task, schedule traces).
//!
//! The hot loop is an **event core** (DESIGN.md §12): a release scan
//! that runs once per release instant, plus a priority-bitmap ready
//! index over tasks that each hold their front job inline, replace the
//! three O(n) scans the original loop paid per scheduling event. That is
//! what lets the `crossval` experiment execute witnesses over full
//! hyperperiods. The original scan loop survives as [`reference::run`],
//! pinned bit-identical by a differential proptest suite.
//!
//! # Example
//!
//! ```
//! use csa_rta::{Task, TaskId, Ticks};
//! use csa_sim::{Simulator, SimTask, UniformPolicy};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let tasks = vec![
//!     SimTask::new(Task::new(TaskId::new(0), Ticks::new(1), Ticks::new(2), Ticks::new(10))?, 2),
//!     SimTask::new(Task::new(TaskId::new(1), Ticks::new(3), Ticks::new(5), Ticks::new(25))?, 1),
//! ];
//! let outcome = Simulator::new(tasks)?.run(Ticks::from_micros(1), &mut UniformPolicy::new(42));
//! for s in &outcome.stats {
//!     println!("{}: latency {} jitter {}", s.task_id, s.observed_latency(), s.observed_jitter());
//! }
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod event_core;
mod gantt;
mod policy;
pub mod reference;
mod simulator;

pub use gantt::render_gantt;
pub use policy::{
    AlternatingPolicy, BestCasePolicy, ExecutionPolicy, UniformPolicy, WorstCasePolicy,
};
pub use simulator::{ResponseStats, SimError, SimOutcome, SimTask, Simulator, TraceEvent};
